package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"uwpos/internal/wire"
)

// Session snapshot format: an internal/wire frame, magic "UWPS",
// version 1, whose body is
//
//	size  field
//	2     session-ID length (u16), then the ID bytes
//	4     spec length (u32), then the SessionSpec JSON
//	8     effective simulation seed (i64)
//	8     RNG draw cursor (u64)
//	8     committed rounds (u64)
//	8     degraded rounds (u64)
//	8     session clock, IEEE-754 bits (u64)
//	1     hasFix flag (u8)
//	4     tracker blob length (u32), then the GroupTracker blob
//
// The spec rides along as JSON because it is already the wire shape the
// client sent and must survive field additions; everything replayable is
// binary and bit-exact. The trailing checksum turns any torn or
// bit-rotted file into a clean decode failure, which the store maps to
// quarantine rather than a boot abort.

const (
	snapshotMagic   = "UWPS"
	snapshotVersion = 1
)

// sessionSnapshot is the decoded form of one session's durable state.
// Together with the SessionSpec it pins the full mutable state of a
// session: the RNG cursor replays the simulation, the tracker blob
// restores the filter, and the counters restore the protocol position.
type sessionSnapshot struct {
	ID       string
	Spec     SessionSpec
	Seed     int64
	RNGDraws uint64
	Rounds   int
	Degraded int
	Clock    float64
	HasFix   bool
	Tracker  []byte
}

// encode renders the snapshot in wire format, checksum included.
func (sn *sessionSnapshot) encode() ([]byte, error) {
	if len(sn.ID) > math.MaxUint16 {
		return nil, fmt.Errorf("service: session ID %d bytes long", len(sn.ID))
	}
	spec, err := json.Marshal(sn.Spec)
	if err != nil {
		return nil, fmt.Errorf("service: encoding session spec: %w", err)
	}
	b := wire.Begin(make([]byte, 0, 64+len(sn.ID)+len(spec)+len(sn.Tracker)), snapshotMagic, snapshotVersion)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(sn.ID)))
	b = append(b, sn.ID...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(spec)))
	b = append(b, spec...)
	b = binary.LittleEndian.AppendUint64(b, uint64(sn.Seed))
	b = binary.LittleEndian.AppendUint64(b, sn.RNGDraws)
	b = binary.LittleEndian.AppendUint64(b, uint64(sn.Rounds))
	b = binary.LittleEndian.AppendUint64(b, uint64(sn.Degraded))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sn.Clock))
	var fix byte
	if sn.HasFix {
		fix = 1
	}
	b = append(b, fix)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sn.Tracker)))
	b = append(b, sn.Tracker...)
	return wire.Seal(b), nil
}

// decodeSnapshot verifies and parses a wire-format snapshot. Every
// failure path is a plain error — the caller decides whether that means
// quarantine (boot) or test failure. Counters no session can reach are
// rejected too: a session commits HasFix with its first round, and
// degraded rounds are a subset of committed ones.
func decodeSnapshot(data []byte) (*sessionSnapshot, error) {
	r, err := wire.Open(snapshotMagic, snapshotVersion, data)
	if err != nil {
		return nil, err
	}
	sn := &sessionSnapshot{}
	sn.ID = string(r.Bytes(int(r.U16())))
	specJSON := r.Bytes(int(r.U32()))
	sn.Seed = int64(r.U64())
	sn.RNGDraws = r.U64()
	sn.Rounds = int(r.U64())
	sn.Degraded = int(r.U64())
	sn.Clock = r.F64()
	sn.HasFix = r.U8()&1 != 0
	sn.Tracker = append([]byte(nil), r.Bytes(int(r.U32()))...)
	if err := r.Close(); err != nil {
		return nil, err
	}
	if sn.Rounds < 0 || sn.Degraded < 0 || sn.Degraded > sn.Rounds || sn.HasFix != (sn.Rounds > 0) {
		return nil, fmt.Errorf("service: impossible snapshot counters (rounds %d, degraded %d, fix %v)",
			sn.Rounds, sn.Degraded, sn.HasFix)
	}
	if err := json.Unmarshal(specJSON, &sn.Spec); err != nil {
		return nil, fmt.Errorf("service: decoding session spec: %w", err)
	}
	return sn, nil
}
