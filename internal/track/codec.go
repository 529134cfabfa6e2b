// Versioned binary codec for filter state. A restored tracker must
// continue bit-identically — confidence widths feed the service's
// replayed round payloads — so every float travels as its exact IEEE-754
// bit pattern (math.Float64bits), never through a decimal round trip.
package track

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"uwpos/internal/wire"
)

// trackerCodecVersion tags the Tracker wire format. Bump on any layout
// change; UnmarshalBinary rejects unknown versions rather than guessing.
const trackerCodecVersion = 1

// trackerBlobLen is the fixed encoded size of one Tracker: version byte,
// flags byte, 3 config + 5+5 axis + depth + lastT floats.
const trackerBlobLen = 2 + 8*15

func putF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// floats lists the tracker's encoded floats in wire order.
func (tr *Tracker) floats() [15]*float64 {
	return [...]*float64{
		&tr.cfg.ProcessAccel, &tr.cfg.FixStd, &tr.cfg.MaxSpeed,
		&tr.ax.x, &tr.ax.v, &tr.ax.pxx, &tr.ax.pxv, &tr.ax.pvv,
		&tr.ay.x, &tr.ay.v, &tr.ay.pxx, &tr.ay.pxv, &tr.ay.pvv,
		&tr.depth, &tr.lastT,
	}
}

// MarshalBinary encodes the complete filter state (config, both axes,
// depth, init flag, last fix time).
func (tr *Tracker) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, trackerBlobLen)
	b = append(b, trackerCodecVersion)
	var flags byte
	if tr.initialized {
		flags |= 1
	}
	b = append(b, flags)
	for _, p := range tr.floats() {
		b = putF64(b, *p)
	}
	return b, nil
}

// UnmarshalBinary replaces the tracker's state with the encoded one. A
// failed decode leaves the tracker unchanged.
func (tr *Tracker) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != trackerCodecVersion {
		return fmt.Errorf("track: unknown tracker codec version %d", v)
	}
	var out Tracker
	out.initialized = r.U8()&1 != 0
	for _, p := range out.floats() {
		*p = r.F64()
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("track: tracker blob: %w", err)
	}
	*tr = out
	return nil
}

// groupCodecVersion tags the GroupTracker wire format.
const groupCodecVersion = 1

// MarshalBinary encodes the group config plus every per-device filter,
// in ascending device order so equal states encode to equal bytes.
func (g *GroupTracker) MarshalBinary() ([]byte, error) {
	ids := make([]int, 0, len(g.trackers))
	for id := range g.trackers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b := make([]byte, 0, 1+8*3+4+len(ids)*(4+trackerBlobLen))
	b = append(b, groupCodecVersion)
	b = putF64(b, g.cfg.ProcessAccel)
	b = putF64(b, g.cfg.FixStd)
	b = putF64(b, g.cfg.MaxSpeed)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		blob, err := g.trackers[id].MarshalBinary()
		if err != nil {
			return nil, err
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
		b = append(b, blob...)
	}
	return b, nil
}

// UnmarshalBinary replaces the group's config and filter set. A failed
// decode leaves the group unchanged.
func (g *GroupTracker) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != groupCodecVersion {
		return fmt.Errorf("track: unknown group codec version %d", v)
	}
	var cfg FilterConfig
	cfg.ProcessAccel, cfg.FixStd, cfg.MaxSpeed = r.F64(), r.F64(), r.F64()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return fmt.Errorf("track: group blob: %w", err)
	}
	if want := n * (4 + trackerBlobLen); r.Len() != want {
		return fmt.Errorf("track: group blob holds %d bytes for %d trackers, want %d", r.Len(), n, want)
	}
	trackers := make(map[int]*Tracker, n)
	for range n {
		id := int(int32(r.U32()))
		tr := &Tracker{}
		if err := tr.UnmarshalBinary(r.Bytes(trackerBlobLen)); err != nil {
			return fmt.Errorf("track: device %d: %w", id, err)
		}
		if _, dup := trackers[id]; dup {
			return fmt.Errorf("track: device %d appears twice in group blob", id)
		}
		trackers[id] = tr
	}
	g.cfg = cfg
	g.trackers = trackers
	return nil
}
