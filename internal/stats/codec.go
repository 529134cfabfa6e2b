// Binary codecs for the online accumulators. Sharded benchmark runs ship
// per-shard Welford/Sketch state across process (and host) boundaries as
// blobs in the internal/wire frame (magic, u16 version, little-endian
// fixed-width fields, trailing CRC32-IEEE), so any torn or bit-rotted
// blob decodes to a clean error instead of a silently wrong accumulator.
//
// Both codecs are canonical: decode followed by encode reproduces the
// input bytes, and an encoded sketch restored on another host continues
// its stream bit-identically (the reservoir RNG is persisted as a draw
// cursor and fast-forwarded on decode).

package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"uwpos/internal/wire"
)

const (
	welfordMagic   = "UWWF"
	welfordVersion = 1
	sketchMagic    = "UWSK"
	sketchVersion  = 1
)

// MarshalBinary encodes the accumulator as a wire frame, magic "UWWF",
// version 1, whose body is
//
//	offset  size  field
//	6       8     observation count (i64)
//	14      8     mean, IEEE-754 bits (u64)
//	22      8     M2, IEEE-754 bits (u64)
func (w *Welford) MarshalBinary() ([]byte, error) {
	b := wire.Begin(make([]byte, 0, 34), welfordMagic, welfordVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(w.n))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w.mean))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w.m2))
	return wire.Seal(b), nil
}

// UnmarshalBinary restores an accumulator encoded by MarshalBinary,
// rejecting any truncation, corruption, unknown version or negative
// count.
func (w *Welford) UnmarshalBinary(data []byte) error {
	r, err := wire.Open(welfordMagic, welfordVersion, data)
	if err != nil {
		return err
	}
	n := int64(r.U64())
	mean, m2 := r.F64(), r.F64()
	if err := r.Close(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("stats: welford blob has negative count %d", n)
	}
	w.n, w.mean, w.m2 = n, mean, m2
	return nil
}

// MarshalBinary encodes the sketch as a wire frame, magic "UWSK",
// version 1, whose body is
//
//	offset  size  field
//	6       4     capacity (u32)
//	10      8     observation count (i64)
//	18      8     Welford mean, IEEE-754 bits (u64)
//	26      8     Welford M2, IEEE-754 bits (u64)
//	34      8     reservoir RNG draw cursor (u64)
//	42      4     retained-value count (u32), then that many f64 bit patterns
func (s *Sketch) MarshalBinary() ([]byte, error) {
	b := wire.Begin(make([]byte, 0, 50+8*len(s.vals)), sketchMagic, sketchVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.cap))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.w.n))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.w.mean))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.w.m2))
	var draws uint64
	if s.src != nil {
		draws = s.src.draws
	}
	b = binary.LittleEndian.AppendUint64(b, draws)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.vals)))
	for _, v := range s.vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return wire.Seal(b), nil
}

// UnmarshalBinary restores a sketch encoded by MarshalBinary. The
// reservoir RNG is rebuilt from the canonical seed and fast-forwarded by
// the recorded draw cursor, so the restored sketch continues its stream
// bit-identically to the original. Field combinations that Add and
// equal-capacity Merge never produce are rejected: a sketch retains
// min(n, cap) values, and exact mode (n ≤ cap) never draws from the RNG.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r, err := wire.Open(sketchMagic, sketchVersion, data)
	if err != nil {
		return err
	}
	capacity := int(r.U32())
	n := int64(r.U64())
	mean, m2 := r.F64(), r.F64()
	draws := r.U64()
	count := int(r.U32())
	if count > r.Len()/8 {
		return fmt.Errorf("stats: sketch blob claims %d values in %d bytes", count, r.Len())
	}
	vals := make([]float64, count)
	for i := range vals {
		vals[i] = r.F64()
	}
	if err := r.Close(); err != nil {
		return err
	}
	// count ≥ 0, so count == min(n, cap) also rules out n < 0.
	if capacity < 2 || int64(count) != min(n, int64(capacity)) || (n <= int64(capacity) && draws != 0) {
		return fmt.Errorf("stats: inconsistent sketch blob (cap %d, %d values, n %d, %d draws)", capacity, count, n, draws)
	}
	*s = Sketch{cap: capacity, vals: vals, w: Welford{n: n, mean: mean, m2: m2}}
	if draws > 0 {
		s.src = newSketchSource(draws)
		s.rng = rand.New(s.src)
	}
	return nil
}
