// Package journal implements the driver's write-ahead log: an in-memory-
// simulated, length-prefixed, checksummed record stream the engine appends
// to at commit points and replays after a driver crash to rebuild control-
// plane state. The encoding mirrors the block framing used elsewhere in the
// simulator: each frame is a 4-byte little-endian payload length, the
// payload, and an 8-byte FNV-64a checksum of the payload. A torn tail — a
// crash mid-append leaving a truncated or corrupt final frame — is detected
// on replay and truncated cleanly; every frame before it is recovered.
//
// The journal is deterministic and virtual-time-free: records carry only
// the integers and names the engine hands them, replay walks frames in
// append order, and nothing here consults a clock or iterates a map.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
)

// Kind identifies a journal record type.
type Kind uint8

// The record catalog. Each kind's payload fields A-D and S are documented
// where the engine appends it; DESIGN.md section 12 has the full table.
const (
	// KindNamespace records RegisterNamespace: S=namespace, A=initialGroups.
	KindNamespace Kind = iota + 1
	// KindGroupSplit records a Group Tree split: S=namespace, A=parent
	// group/unit, B=left child, C=right child, D=executor assigned the new
	// right unit.
	KindGroupSplit
	// KindGroupMerge records a Group Tree merge: S=namespace, A=left unit,
	// B=right unit, C=merged unit.
	KindGroupMerge
	// KindMapOutput records an accepted map-output commit: A=shuffle ID,
	// B=map partition, C=numMaps, D=numReduces.
	KindMapOutput
	// KindCheckpoint records a completed checkpoint: A=RDD ID.
	KindCheckpoint
	// KindJobSubmit records a job submission: A=job ID.
	KindJobSubmit
	// KindJobComplete records a job completion: A=job ID.
	KindJobComplete
	// KindBlacklist records an executor entering probation: A=executor,
	// B=until (virtual nanoseconds).
	KindBlacklist
	// KindUnblacklist records an executor leaving probation: A=executor.
	KindUnblacklist
	// KindStreamIngest records a stream step's RDD: S=stream name, A=step,
	// B=RDD ID.
	KindStreamIngest
	// KindStreamEvict records a stream step leaving the retention window:
	// S=stream name, A=step.
	KindStreamEvict
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindNamespace:
		return "namespace"
	case KindGroupSplit:
		return "group-split"
	case KindGroupMerge:
		return "group-merge"
	case KindMapOutput:
		return "map-output"
	case KindCheckpoint:
		return "checkpoint"
	case KindJobSubmit:
		return "job-submit"
	case KindJobComplete:
		return "job-complete"
	case KindBlacklist:
		return "blacklist"
	case KindUnblacklist:
		return "unblacklist"
	case KindStreamIngest:
		return "stream-ingest"
	case KindStreamEvict:
		return "stream-evict"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one journal entry: a kind, four integer operands, and an
// optional string (namespace or stream name). Unused operands are zero.
type Record struct {
	Kind Kind
	A    int64
	B    int64
	C    int64
	D    int64
	S    string
}

// maxPayload bounds a single frame; replay treats larger declared lengths
// as corruption rather than allocating unboundedly.
const maxPayload = 1 << 20

// encode serializes the record payload (without framing): kind byte, four
// varint operands, then the string bytes.
func (r Record) encode() []byte {
	buf := make([]byte, 0, 1+4*binary.MaxVarintLen64+len(r.S))
	buf = append(buf, byte(r.Kind))
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range [4]int64{r.A, r.B, r.C, r.D} {
		n := binary.PutVarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	buf = append(buf, r.S...)
	return buf
}

// decodePayload parses an encoded payload back into a Record.
func decodePayload(p []byte) (Record, error) {
	if len(p) < 1 {
		return Record{}, fmt.Errorf("journal: empty payload")
	}
	r := Record{Kind: Kind(p[0])}
	rest := p[1:]
	for i := 0; i < 4; i++ {
		v, n := binary.Varint(rest)
		if n <= 0 {
			return Record{}, fmt.Errorf("journal: truncated operand %d", i)
		}
		switch i {
		case 0:
			r.A = v
		case 1:
			r.B = v
		case 2:
			r.C = v
		case 3:
			r.D = v
		}
		rest = rest[n:]
	}
	r.S = string(rest)
	return r, nil
}

func checksum(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// Log is the write-ahead journal: an append-only byte buffer of framed
// records, optionally mirrored to a durable sink. The zero value is an
// empty, ready-to-use log.
type Log struct {
	buf  []byte
	recs int

	// Durable-sink mirroring: when set, every framed byte appended to the
	// in-memory buffer is also written to sink. The first write error is
	// latched in sinkErr; Close closes the sink exactly once.
	sink       io.WriteCloser
	sinkClosed bool
	sinkErr    error
}

// SetSink attaches a durable sink: every subsequently appended frame is
// mirrored to w, and Close closes it. Passing nil detaches without closing.
func (l *Log) SetSink(w io.WriteCloser) {
	l.sink = w
	l.sinkClosed = false
	l.sinkErr = nil
}

// Append frames and appends one record.
func (l *Log) Append(r Record) {
	payload := r.encode()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	start := len(l.buf)
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], checksum(payload))
	l.buf = append(l.buf, sum[:]...)
	l.recs++
	if l.sink != nil && !l.sinkClosed && l.sinkErr == nil {
		if _, err := l.sink.Write(l.buf[start:]); err != nil {
			l.sinkErr = fmt.Errorf("journal: sink write: %w", err)
		}
	}
}

// Close releases the durable sink, if any. It is idempotent: the first call
// closes the sink exactly once and latches the result (preferring an earlier
// latched write error); every later call returns that same result without
// touching the sink again. A sink-less log closes to nil.
func (l *Log) Close() error {
	if l.sinkClosed {
		return l.sinkErr
	}
	l.sinkClosed = true
	if l.sink == nil {
		return l.sinkErr
	}
	if err := l.sink.Close(); err != nil && l.sinkErr == nil {
		l.sinkErr = fmt.Errorf("journal: sink close: %w", err)
	}
	return l.sinkErr
}

// Len returns the number of appended records (before any tearing).
func (l *Log) Len() int { return l.recs }

// Size returns the byte length of the log.
func (l *Log) Size() int { return len(l.buf) }

// Bytes returns the raw log contents. The slice aliases the log's buffer.
func (l *Log) Bytes() []byte { return l.buf }

// TearTail simulates a crash mid-append by removing the final n bytes,
// leaving a truncated (torn) last frame for replay to detect. Tearing more
// bytes than the log holds empties it.
func (l *Log) TearTail(n int) {
	if n <= 0 {
		return
	}
	if n >= len(l.buf) {
		l.buf = l.buf[:0]
		return
	}
	l.buf = l.buf[:len(l.buf)-n]
}

// Reset empties the log.
func (l *Log) Reset() {
	l.buf = l.buf[:0]
	l.recs = 0
}

// Replay parses the framed byte stream and returns every intact record in
// append order plus the number of torn tail bytes discarded. A frame with a
// short header, short body, implausible length, undecodable payload, or
// checksum mismatch ends the replay: it and everything after it are the
// torn tail. Replay never fails — a corrupt tail is truncated, not an
// error — matching the crash-consistency contract that the journal prefix
// up to the last fully flushed frame is always recoverable.
func Replay(data []byte) (recs []Record, tornBytes int) {
	off := 0
	for off < len(data) {
		if len(data)-off < 4 {
			return recs, len(data) - off
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n < 1 || n > maxPayload || len(data)-off-4 < n+8 {
			return recs, len(data) - off
		}
		payload := data[off+4 : off+4+n]
		sum := binary.LittleEndian.Uint64(data[off+4+n : off+4+n+8])
		if checksum(payload) != sum {
			return recs, len(data) - off
		}
		r, err := decodePayload(payload)
		if err != nil {
			return recs, len(data) - off
		}
		recs = append(recs, r)
		off += 4 + n + 8
	}
	return recs, 0
}

// ReplayLog replays the log's own buffer and truncates any torn tail it
// finds, returning the intact records and the torn byte count. After the
// call the log's byte stream is fully parseable.
func (l *Log) ReplayLog() (recs []Record, tornBytes int) {
	recs, torn := Replay(l.buf)
	if torn > 0 {
		l.buf = l.buf[:len(l.buf)-torn]
	}
	l.recs = len(recs)
	return recs, torn
}
