package lint

// globalrandBanned lists the math/rand (and math/rand/v2) package-level
// functions that draw from the process-global generator. Constructors stay
// legal: rand.New(rand.NewSource(seed)) is exactly how seeded randomness is
// threaded from config and fault schedules.
var globalrandBanned = map[string]bool{
	// math/rand
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 additions (N, IntN, ... share names via the map below)
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
}

// GlobalrandAnalyzer enforces the seeded-randomness contract: every random
// draw must flow through a *rand.Rand constructed from a seed recorded in
// config or a fault schedule, so replaying a seed replays the run. The
// process-global generator is unseedable per-run, shared across goroutines,
// and therefore nondeterministic under parallelism.
var GlobalrandAnalyzer = &Analyzer{
	Name: "globalrand",
	Doc:  "bans package-level math/rand draws; randomness must come from a seeded *rand.Rand",
	Run:  runGlobalrand,
}

func runGlobalrand(pass *Pass) {
	reportBannedFuncs(pass, globalrandBanned, []string{"math/rand", "math/rand/v2"},
		"rand.%s draws from the process-global generator; thread a seeded *rand.Rand instead")
}
