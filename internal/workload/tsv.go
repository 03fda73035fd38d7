package workload

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"stark/internal/record"
)

// TSV serialization for traces: one record per line,
// `tag \t index \t key \t value`. Values round-trip as strings (the trace
// generators only emit string values); tags and indices let one file carry
// multiple datasets.

// WriteTSV emits records under the given tag and dataset index.
func WriteTSV(w io.Writer, tag string, index int, recs []record.Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		v := fmt.Sprintf("%v", r.Value)
		if strings.ContainsAny(r.Key, "\t\n") || strings.ContainsAny(v, "\t\n") {
			return fmt.Errorf("workload: record %q contains tab/newline; not TSV-safe", r.Key)
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%s\t%s\n", tag, index, r.Key, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}
