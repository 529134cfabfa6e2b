package sig

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"uwpos/internal/dsp"
)

func TestZadoffChuConstantAmplitude(t *testing.T) {
	zc := ZadoffChu(25, 173)
	for i, v := range zc {
		if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
			t.Fatalf("|zc[%d]| = %g, want 1", i, cmplx.Abs(v))
		}
	}
}

func TestZadoffChuZeroAutocorrelation(t *testing.T) {
	// Prime length, coprime root: all nonzero cyclic lags must vanish.
	zc := ZadoffChu(5, 31)
	for lag := 1; lag < 31; lag++ {
		var s complex128
		for k := 0; k < 31; k++ {
			s += zc[k] * cmplx.Conj(zc[(k+lag)%31])
		}
		if cmplx.Abs(s) > 1e-9 {
			t.Fatalf("autocorrelation at lag %d = %g", lag, cmplx.Abs(s))
		}
	}
}

// zcAutocorrPeakToSide returns the ratio between the zero-lag peak and the
// largest side lobe of the cyclic autocorrelation of zc: ideal sequences
// are ~Inf, anything above ~10 is excellent for synchronization.
func zcAutocorrPeakToSide(zc []complex128) float64 {
	n := len(zc)
	peak := 0.0
	side := 0.0
	for lag := 0; lag < n; lag++ {
		var s complex128
		for k := 0; k < n; k++ {
			s += zc[k] * cmplx.Conj(zc[(k+lag)%n])
		}
		a := cmplx.Abs(s)
		if lag == 0 {
			peak = a
		} else if a > side {
			side = a
		}
	}
	if side == 0 {
		return math.Inf(1)
	}
	return peak / side
}

func TestZCQuality(t *testing.T) {
	if q := zcAutocorrPeakToSide(ZadoffChu(25, 173)); q < 1e6 {
		t.Errorf("prime-length ZC quality %g, want ~Inf", q)
	}
}

func TestZadoffChuPanics(t *testing.T) {
	for _, c := range []struct{ u, n int }{{0, 5}, {5, 5}, {2, 4}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ZadoffChu(%d,%d) should panic", c.u, c.n)
				}
			}()
			ZadoffChu(c.u, c.n)
		}()
	}
}

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.PreambleLen() != 4*(1920+540) {
		t.Errorf("preamble length %d, want 9840", p.PreambleLen())
	}
	lo, hi := p.BinRange()
	// 1 kHz at 1920/44100: bin 44; 5 kHz: bin 217.
	if lo != 44 || hi != 218 {
		t.Errorf("bin range [%d,%d), want [44,218)", lo, hi)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	bad := []Params{
		{},
		{SampleRate: 44100, SymbolLen: 0},
		{SampleRate: 44100, SymbolLen: 64, CPLen: -1},
		{SampleRate: 44100, SymbolLen: 64, NumSymbols: 0},
		{SampleRate: 44100, SymbolLen: 64, NumSymbols: 2, PN: []float64{1}},
		{SampleRate: 44100, SymbolLen: 64, NumSymbols: 1, PN: []float64{1}, BandLowHz: 5000, BandHighHz: 1000},
		{SampleRate: 44100, SymbolLen: 64, NumSymbols: 1, PN: []float64{1}, BandLowHz: 1000, BandHighHz: 44100},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestBaseSymbolIsRealAndBandLimited(t *testing.T) {
	p := DefaultParams()
	sym := p.BaseSymbol()
	if len(sym) != p.SymbolLen {
		t.Fatalf("symbol length %d", len(sym))
	}
	// Spectrum must be confined to the occupied band. SymbolLen is not a
	// power of two, so the transform runs through a Bluestein Plan.
	spec := make([]complex128, len(sym))
	for i, v := range sym {
		spec[i] = complex(v, 0)
	}
	dsp.NewPlan(len(spec)).Forward(spec)
	lo, hi := p.BinRange()
	var inBand, outBand float64
	for k := 1; k < p.SymbolLen/2; k++ {
		e := real(spec[k])*real(spec[k]) + imag(spec[k])*imag(spec[k])
		if k >= lo && k < hi {
			inBand += e
		} else {
			outBand += e
		}
	}
	if outBand > 1e-9*inBand {
		t.Errorf("out-of-band energy ratio %g", outBand/inBand)
	}
}

func TestPreambleStructure(t *testing.T) {
	p := DefaultParams()
	pre := p.Preamble()
	if len(pre) != p.PreambleLen() {
		t.Fatalf("preamble length %d, want %d", len(pre), p.PreambleLen())
	}
	sym := p.BaseSymbol()
	// Each symbol body must equal the base symbol times its PN sign.
	for s := 0; s < p.NumSymbols; s++ {
		start, end := p.SymbolAt(s)
		seg := pre[start:end]
		for i := range seg {
			if math.Abs(seg[i]-p.PN[s]*sym[i]) > 1e-12 {
				t.Fatalf("symbol %d sample %d mismatch", s, i)
			}
		}
		// Cyclic prefix must copy the symbol tail.
		cpStart := start - p.CPLen
		for i := 0; i < p.CPLen; i++ {
			if math.Abs(pre[cpStart+i]-p.PN[s]*sym[p.SymbolLen-p.CPLen+i]) > 1e-12 {
				t.Fatalf("CP of symbol %d sample %d mismatch", s, i)
			}
		}
	}
}

func TestSymbolAtPanics(t *testing.T) {
	p := DefaultParams()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.SymbolAt(4)
}

func TestPreambleAutocorrelationSignPattern(t *testing.T) {
	// The PN signs [1,1,-1,1] mean symbol 0 correlates positively with
	// symbol 1, negatively with symbol 2.
	p := DefaultParams()
	pre := p.Preamble()
	s0, e0 := p.SymbolAt(0)
	s1, e1 := p.SymbolAt(1)
	s2, e2 := p.SymbolAt(2)
	c01 := dsp.SegmentCorrelation(pre[s0:e0], pre[s1:e1])
	c02 := dsp.SegmentCorrelation(pre[s0:e0], pre[s2:e2])
	if c01 < 0.99 {
		t.Errorf("corr(S0,S1) = %g, want ~1", c01)
	}
	if c02 > -0.99 {
		t.Errorf("corr(S0,S2) = %g, want ~-1", c02)
	}
}

func TestLinearChirpFrequencyProgression(t *testing.T) {
	const fs = 44100.0
	n := 8192
	ch := LinearChirp(1000, 5000, n, fs)
	if len(ch) != n {
		t.Fatal("length")
	}
	// Instantaneous frequency early vs late via zero-crossing counting.
	early := zeroCrossRate(ch[500:1500], fs)
	late := zeroCrossRate(ch[n-1500:n-500], fs)
	if late < early*1.5 {
		t.Errorf("chirp frequency did not increase: early %g Hz late %g Hz", early, late)
	}
	if LinearChirp(1, 2, 0, fs) != nil {
		t.Error("zero-length chirp should be nil")
	}
}

func zeroCrossRate(x []float64, fs float64) float64 {
	var crossings int
	for i := 1; i < len(x); i++ {
		if (x[i-1] < 0) != (x[i] < 0) {
			crossings++
		}
	}
	return float64(crossings) * fs / (2 * float64(len(x)))
}

func TestToneFrequency(t *testing.T) {
	const fs = 44100.0
	x := Tone(3000, 4410, fs, 1)
	got := zeroCrossRate(x, fs)
	if math.Abs(got-3000) > 50 {
		t.Errorf("tone frequency %g, want 3000", got)
	}
}

func TestMFSKRoundTrip(t *testing.T) {
	const fs = 44100.0
	for _, groupSize := range []int{3, 5, 8} {
		m := NewMFSK(groupSize, fs)
		for id := 0; id < groupSize; id++ {
			x := m.EncodeID(id, 2205)
			got, conf := m.DecodeID(x)
			if got != id {
				t.Errorf("group %d: decoded %d, want %d", groupSize, got, id)
			}
			if conf < 2 {
				t.Errorf("group %d id %d: low confidence %g", groupSize, id, conf)
			}
		}
	}
}

func TestMFSKRoundTripNoisy(t *testing.T) {
	const fs = 44100.0
	r := rand.New(rand.NewSource(42))
	m := NewMFSK(6, fs)
	errors := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		id := trial % 6
		x := m.EncodeID(id, 2205)
		for i := range x {
			x[i] += 0.7 * r.NormFloat64() // ~ -3 dB SNR
		}
		if got, _ := m.DecodeID(x); got != id {
			errors++
		}
	}
	if errors > trials/10 {
		t.Errorf("%d/%d MFSK errors at -3 dB", errors, trials)
	}
}

func TestMFSKPanicsOutOfRange(t *testing.T) {
	m := NewMFSK(4, 44100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.EncodeID(4, 100)
}

func TestMFSKSubBandsAreOrdered(t *testing.T) {
	f := func(gs uint8) bool {
		g := int(gs%12) + 2
		m := NewMFSK(g, 44100)
		prev := 0.0
		for i := 0; i < g; i++ {
			f := m.SubBand(i)
			if f <= prev || f <= m.BandLowHz || f >= m.BandHighHz {
				return false
			}
			prev = f
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGoertzelMatchesDFTBin(t *testing.T) {
	const fs = 8000.0
	n := 800
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*1000*float64(i)/fs) + 0.5*math.Sin(2*math.Pi*2500*float64(i)/fs)
	}
	e1000 := Goertzel(x, 1000, fs)
	e2500 := Goertzel(x, 2500, fs)
	e3300 := Goertzel(x, 3300, fs)
	if e1000 < 3*e2500 {
		t.Errorf("1000 Hz energy %g should dominate 2500 Hz %g by ~4x", e1000, e2500)
	}
	if e3300 > e2500/10 {
		t.Errorf("empty bin energy %g vs %g", e3300, e2500)
	}
	if Goertzel(nil, 100, fs) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestCalibrationSignal(t *testing.T) {
	p := DefaultParams()
	c := p.CalibrationSignal(0)
	if len(c) != 2048 {
		t.Errorf("default calibration length %d", len(c))
	}
	c = p.CalibrationSignal(512)
	if len(c) != 512 {
		t.Errorf("calibration length %d", len(c))
	}
}

func TestBandLimitRemovesOutOfBand(t *testing.T) {
	const fs = 44100.0
	n := 8192
	x := make([]float64, n)
	for i := range x {
		// In-band 3 kHz plus out-of-band 10 kHz.
		x[i] = math.Sin(2*math.Pi*3000*float64(i)/fs) + math.Sin(2*math.Pi*10000*float64(i)/fs)
	}
	y := BandLimit(x, 1000, 5000, fs)
	if len(y) != n {
		t.Fatal("length changed")
	}
	e3k := Goertzel(y[1000:5000], 3000, fs)
	e10k := Goertzel(y[1000:5000], 10000, fs)
	if e10k > e3k/100 {
		t.Errorf("10 kHz not attenuated: %g vs %g", e10k, e3k)
	}
}

func BenchmarkPreamble(b *testing.B) {
	p := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Preamble()
	}
}

func TestSNRProbeParams(t *testing.T) {
	p := SNRProbeParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumSymbols != 8 || len(p.PN) != 8 {
		t.Errorf("probe has %d symbols / %d PN entries", p.NumSymbols, len(p.PN))
	}
	if p.PreambleLen() != 8*(1920+540) {
		t.Errorf("probe length %d", p.PreambleLen())
	}
	// Symbol numerology is unchanged from the ranging preamble.
	d := DefaultParams()
	if p.SymbolLen != d.SymbolLen || p.CPLen != d.CPLen {
		t.Error("probe must reuse the symbol numerology")
	}
}
