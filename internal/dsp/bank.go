package dsp

import (
	"math"
	"sync/atomic"
)

// MatcherBank is the block grid one stream is scanned on for several
// Matchers at far less than per-template cost. All templates share one
// overlap-save block length sized for the longest template; each block
// of the stream is forward-transformed exactly once, and every template
// then pays only its pointwise multiply and inverse transform. With N
// templates that is 1+N half-transforms per block instead of 2N.
//
// The scan itself is a BankStream session (see Stream): the only code
// that computes a correlation lag. Every lag is window-energy normalized
// (outputs in [-1, 1]): the receiver thresholds correlation peaks
// against a level independent of the received amplitude.
//
// A bank is immutable after construction and safe for concurrent use:
// every session created by Stream owns its state exclusively and only
// reads the member matchers' cached spectra (each guarded inside
// Matcher).
type MatcherBank struct {
	ms     []*Matcher
	maxLen int // longest template, samples
	block  int // shared overlap-save FFT block length
	hop    int // valid lags per block: block - maxLen + 1
}

// osBlockFactor sizes the throughput-oriented bank block relative to the
// longest template: NextPow2(osBlockFactor·len(h)) keeps >= ~87% of each
// block as valid lags, so a long stream pays few transforms per lag
// while scratch stays bounded at the block length.
const osBlockFactor = 8

// NewMatcherBank builds a bank over the given matchers with the
// throughput-oriented block size (osBlockFactor × the longest template,
// ≈87% valid lags per block). It panics on an empty bank or an empty
// template — a bank exists to scan templates, and a zero-length template
// has no correlation defined.
func NewMatcherBank(ms ...*Matcher) *MatcherBank {
	return newMatcherBank(osBlockFactor, ms)
}

// streamBlockFactor sizes low-latency bank blocks relative to the longest
// template. 2 halves the per-block valid fraction against osBlockFactor's
// 8 (≈53% instead of ≈87%, a ~1.6× transform-work premium) but cuts the
// emission latency four-fold — the right trade for a live receiver that
// wants detections while the diver is still mid-gesture.
const streamBlockFactor = 2

// NewMatcherBankLowLatency builds a bank with the latency-oriented block
// size the streaming sessions use (streamBlockFactor × the longest
// template): lags emerge after roughly one template length of input
// instead of seven, at ~1.5× the per-sample transform cost. This is the
// bank shape for live ingest pipelines, where emission latency bounds
// the end-to-end detection delay.
func NewMatcherBankLowLatency(ms ...*Matcher) *MatcherBank {
	return newMatcherBank(streamBlockFactor, ms)
}

// bankForwardCount counts shared forward block transforms across every
// BankStream session in the process — the observable for "exactly one
// forward transform per block feeds every consumer" assertions (see
// BankForwardTransforms).
var bankForwardCount atomic.Uint64

// BankForwardTransforms returns the process-wide number of shared
// forward block transforms executed by BankStream sessions since
// process start. Deltas around a scan measure how many forward FFTs the
// scan actually paid for; a shared-scan pipeline over N templates and C
// consumers advances it exactly once per block, independent of N and C.
func BankForwardTransforms() uint64 { return bankForwardCount.Load() }

func newMatcherBank(blockFactor int, ms []*Matcher) *MatcherBank {
	if len(ms) == 0 {
		panic("dsp: NewMatcherBank needs at least one matcher")
	}
	maxLen := 0
	for _, mt := range ms {
		if mt.TemplateLen() == 0 {
			panic("dsp: MatcherBank template is empty")
		}
		if l := mt.TemplateLen(); l > maxLen {
			maxLen = l
		}
	}
	block := NextPow2(blockFactor * maxLen)
	return &MatcherBank{
		ms:     append([]*Matcher(nil), ms...),
		maxLen: maxLen,
		block:  block,
		hop:    block - maxLen + 1,
	}
}

// Len returns the number of templates in the bank.
func (b *MatcherBank) Len() int { return len(b.ms) }

// Matcher returns the i-th member matcher.
func (b *MatcherBank) Matcher(i int) *Matcher { return b.ms[i] }

// Stream opens an incremental scanning session over the bank: feed the
// stream chunk by chunk and collect each template's normalized
// correlation lags as they become computable.
func (b *MatcherBank) Stream() *BankStream {
	return &BankStream{
		bank: b,
		buf:  GetF64(b.block),
		work: getF64Raw(b.block),
		fxre: getF64Raw(b.block / 2),
		fxim: getF64Raw(b.block / 2),
		zre:  getF64Raw(b.block / 2),
		zim:  getF64Raw(b.block / 2),
		emit: make([][]float64, len(b.ms)),
		pre:  GetF64(b.block + 1),
	}
}

// BankStream is an in-progress overlap-save scan of one stream against
// every template of a MatcherBank. Chunks of any length go in via Feed;
// newly computable correlation lags come out per template. Because blocks
// sit on a fixed absolute grid (multiples of the bank hop from stream
// start), the emitted lags are bit-for-bit identical for every chunk
// partition of the same stream, including the whole stream in one Feed.
//
// State is O(block length): the session carries only the inter-block
// overlap, a rolling energy-prefix window, and per-template emission
// buffers. A session is single-stream and not safe for concurrent use;
// open one session per goroutine (sessions of one bank share the cached
// template spectra read-only, so concurrent sessions are safe).
type BankStream struct {
	bank *MatcherBank

	// buf holds stream samples from the current block start (a multiple
	// of hop); pre holds the energy prefix sums aligned with buf:
	// pre[i] = Σ x[j]² for j < start+i, accumulated with Neumaier
	// compensation (preSum/preComp carry the running state across chunks)
	// so arbitrarily long sessions don't drift.
	buf             []float64
	pre             []float64
	preSum, preComp float64
	bufLen          int
	start           int // absolute stream index of buf[0]
	fed             int // total samples consumed

	emit [][]float64 // per-template emission buffers, reused across calls

	work       []float64 // per-template lag staging before emit append
	fxre, fxim []float64 // shared block spectrum, packed permuted order
	zre, zim   []float64 // per-template fold output / inverse scratch

	flushed bool
}

// Feed consumes one chunk and returns, per template, the correlation lags
// that became computable. Rows alias session-owned buffers: they are
// valid until the next Feed or Flush call and must be copied to persist.
// All rows have equal length during feeding (whole blocks only); the
// ragged per-template tails arrive at Flush.
func (s *BankStream) Feed(chunk []float64) [][]float64 {
	if s.flushed {
		panic("dsp: BankStream.Feed after Flush")
	}
	s.grow(len(chunk))
	copy(s.buf[s.bufLen:], chunk)
	sum, comp := s.preSum, s.preComp
	for i, v := range chunk {
		sum, comp = neumaierAdd(sum, comp, v*v)
		s.pre[s.bufLen+1+i] = sum + comp
	}
	s.preSum, s.preComp = sum, comp
	s.bufLen += len(chunk)
	s.fed += len(chunk)
	for i := range s.emit {
		s.emit[i] = s.emit[i][:0]
	}
	// Run every whole block from its offset into the buffer, then move the
	// unconsumed tail down once: a chunk of n samples copies O(n) floats,
	// not one buffer's worth per block.
	off := 0
	for s.bufLen-off >= s.bank.block {
		s.runBlock(off, func(int) int { return s.bank.hop })
		off += s.bank.hop
	}
	if off > 0 {
		copy(s.buf, s.buf[off:s.bufLen])
		copy(s.pre, s.pre[off:s.bufLen+1])
		s.bufLen -= off
		s.start += off
	}
	return s.emit
}

// Flush marks end of stream, computes every remaining lag from the
// zero-padded tail blocks and returns them per template (rows may have
// different lengths; a template longer than the whole stream yields an
// empty row). The session's scratch returns to the pool; only the
// returned rows stay valid, until the session is garbage collected.
func (s *BankStream) Flush() [][]float64 {
	if s.flushed {
		panic("dsp: BankStream.Flush after Flush")
	}
	s.flushed = true
	for i := range s.emit {
		s.emit[i] = s.emit[i][:0]
	}
	for {
		more := false
		for _, mt := range s.bank.ms {
			if s.fed-mt.TemplateLen()+1 > s.start {
				more = true
			}
		}
		if !more {
			break
		}
		s.runBlock(0, func(i int) int {
			take := s.fed - s.bank.ms[i].TemplateLen() + 1 - s.start
			if take > s.bank.hop {
				take = s.bank.hop
			}
			return take
		})
		adv := s.bank.hop
		if adv > s.bufLen {
			adv = s.bufLen
		}
		copy(s.buf, s.buf[adv:s.bufLen])
		copy(s.pre, s.pre[adv:s.bufLen+1])
		s.bufLen -= adv
		s.start += s.bank.hop
	}
	PutF64(s.buf)
	PutF64(s.work)
	PutF64(s.fxre)
	PutF64(s.fxim)
	PutF64(s.zre)
	PutF64(s.zim)
	PutF64(s.pre)
	s.buf, s.work, s.pre = nil, nil, nil
	s.fxre, s.fxim, s.zre, s.zim = nil, nil, nil, nil
	return s.emit
}

// runBlock transforms the block that starts off samples into the buffer
// (buffered samples zero-padded to the block length) once and appends
// take(i) lags to each template's emission buffer. take(i) ≤ hop;
// non-positive takes skip the template's inverse transform entirely.
func (s *BankStream) runBlock(off int, take func(i int) int) {
	n := s.bufLen - off
	if n > s.bank.block {
		n = s.bank.block
	}
	hm := s.bank.block / 2
	rfftPacked(s.fxre, s.fxim, s.buf[off:off+n])
	bankForwardCount.Add(1)
	for i, mt := range s.bank.ms {
		t := take(i)
		if t <= 0 {
			continue
		}
		foldSpecMulTo(s.zre, s.zim, s.fxre, s.fxim, mt.spectrum(s.bank.block), s.bank.block)
		fftSoA(s.zre, s.zim, true)
		interleaveScaled(s.work[:t], s.zre, s.zim, hm)
		normalizeWithPrefix(s.work[:t], s.pre[off:], mt.TemplateLen(), mt.energy)
		s.emit[i] = append(s.emit[i], s.work[:t]...)
	}
}

// grow makes room for n more samples (and prefix entries) in the session
// buffers, moving up a pool size class when a large chunk needs it. The
// prefix array holds one entry more than the sample buffer, so its
// capacity is checked separately: the pool's power-of-two classes put the
// two buffers in the same class exactly when need+1 crosses a boundary.
func (s *BankStream) grow(n int) {
	need := s.bufLen + n
	if need <= cap(s.buf) && need+1 <= cap(s.pre) {
		s.buf = s.buf[:cap(s.buf)]
		s.pre = s.pre[:cap(s.pre)]
		return
	}
	nb := GetF64(need)
	copy(nb, s.buf[:s.bufLen])
	PutF64(s.buf)
	s.buf = nb
	np := GetF64(need + 1)
	copy(np, s.pre[:s.bufLen+1])
	PutF64(s.pre)
	s.pre = np
}

// neumaierAdd folds y into the compensated running sum (sum, comp):
// Kahan–Babuška–Neumaier summation, which keeps the low-order bits a
// plain running sum sheds — over a 10^7-sample stream the plain sum's
// window energies drift by orders of magnitude more than one ulp.
func neumaierAdd(sum, comp, y float64) (float64, float64) {
	t := sum + y
	if sum >= y {
		comp += (sum - t) + y
	} else {
		comp += (y - t) + sum
	}
	return t, comp
}

// normalizeWithPrefix divides each correlation lag by sqrt(E_window·eh),
// reading window energies off a precomputed energy prefix: prefix[k] must
// hold the cumulative Σ x² up to (but not including) the stream sample
// aligned with lag r[k]. One prefix serves every template of a block.
// Windows of (near-)zero energy yield 0.
func normalizeWithPrefix(r, prefix []float64, hlen int, eh float64) {
	if eh == 0 {
		for i := range r {
			r[i] = 0
		}
		return
	}
	const eps = 1e-30
	lo := prefix[:len(r)]
	hi := prefix[hlen:][:len(r)]
	for k := range r {
		ex := hi[k] - lo[k]
		den := math.Sqrt(ex * eh)
		if den < eps {
			r[k] = 0
		} else {
			r[k] /= den
		}
	}
}
