package sim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"uwpos/internal/audio"
	"uwpos/internal/comm"
	"uwpos/internal/depth"
	"uwpos/internal/dsp"
	"uwpos/internal/ingest"
	"uwpos/internal/protocol"
	"uwpos/internal/ranging"
	"uwpos/internal/sig"
)

// Scenario-local timeline constants (seconds, device-local time).
const (
	calWriteAt   = 0.10 // when each device plays its calibration chirp
	calWindowEnd = 0.50 // self-calibration search window
	queryAt      = 0.70 // leader query transmit time (leader-local)
	reportMargin = 0.25 // gap between the last possible slot and reports
	tailMargin   = 0.40 // stream slack after the report phase
)

// RoundResult is the outcome of one full protocol round.
type RoundResult struct {
	// Table holds the leader-side reconstructed timestamps (s).
	Table *protocol.Table
	// D and W are the pairwise distance estimates and link weights.
	D, W [][]float64
	// TrueD is the ground-truth distance matrix at query time.
	TrueD [][]float64
	// Depths are the depths available to the leader (sensor + protocol
	// quantization for remote devices). TrueDepths is ground truth.
	Depths, TrueDepths []float64
	// MicSigns are the leader's dual-mic side observations per device.
	MicSigns []int
	// Latency is the observed protocol time: leader TX → last ranging
	// packet arrival at the leader.
	Latency float64
	// Silent lists devices that never transmitted (heard nothing).
	Silent []int
}

// RunRound executes calibration, the timestamp protocol, receiver
// processing, the report-back phase and distance computation.
//
// ctx is checked at stage boundaries — after setup, per device during
// calibration and final receiver processing, and before the report
// decode — so a server-imposed deadline or cancellation aborts the round
// within roughly one device's processing latency. When ctx is never
// cancelled the execution (and every RNG draw) is identical to a run
// without a deadline, keeping trial results byte-reproducible.
func (nw *Network) RunRound(ctx context.Context) (*RoundResult, error) {
	n := nw.N()
	dur := nw.streamDuration()
	if err := nw.setupDevices(dur); err != nil {
		return nil, err
	}
	// Audio streams are the round's dominant allocation; everything the
	// caller receives (tables, distances, depths) is index/time arithmetic
	// with no references into them, so they go back to the pool at round
	// end and the next trial on this worker reuses the slabs.
	defer nw.releaseAudio()
	nw.addNoise()
	if err := nw.calibrateAll(ctx); err != nil {
		return nil, err
	}

	// Leader query.
	leader := nw.devices[0]
	queryIdx := int(queryAt * nw.params.SampleRate)
	queryWave := nw.messageWave(0, 0)
	leader.txIndex = queryIdx
	leader.stack.WriteSpeaker(queryIdx, queryWave)
	nw.renderTransmission(leader, queryIdx, queryWave, leader.stack.SpeakerIndexToTime(float64(queryIdx)), everyMic)
	releaseWave(queryWave)

	// Slot-order scheduling; devices that hear nothing yet retry in a
	// wrap pass (§2.3's "not all devices are in leader's range").
	var deferred []*simDevice
	for i := 1; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !nw.scheduleReply(nw.devices[i]) {
			deferred = append(deferred, nw.devices[i])
		}
	}
	var silent []int
	for _, d := range deferred {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !nw.scheduleReply(d) {
			silent = append(silent, d.id)
		}
	}

	// Final receiver processing on complete streams.
	for _, d := range nw.devices {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := nw.processArrivals(d); err != nil {
			return nil, fmt.Errorf("sim: device %d processing: %w", d.id, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &RoundResult{
		TrueD:      nw.trueDistances(),
		TrueDepths: nw.trueDepths(),
		Silent:     silent,
	}
	nw.fillDepths(res)
	nw.fillMicSigns(res)
	table, err := nw.assembleTable(res)
	if err != nil {
		return nil, err
	}
	finishDepths(res.Depths)
	res.Table = table
	res.D, res.W = table.Distances(nw.SoundSpeedAssumed())
	res.Latency = nw.measureLatency()
	return res, nil
}

func (nw *Network) streamDuration() float64 {
	n := nw.N()
	return queryAt + nw.proto.RoundTime(false) + reportMargin +
		nw.reportDuration(n) + tailMargin
}

func (nw *Network) reportDuration(n int) float64 {
	if nw.cfg.DisableReportBack {
		return 0
	}
	return comm.NewModem(n, nw.params.SampleRate).ReportDuration()
}

// reportAt is the rebased local time (zero at leader-message arrival) when
// every device transmits its report.
func (nw *Network) reportAt() float64 {
	return nw.proto.RoundTime(false) + reportMargin
}

func (nw *Network) setupDevices(dur float64) error {
	nw.devices = nw.devices[:0]
	for i, spec := range nw.cfg.Devices {
		ppm := spec.Model.ClockSkewPPM * 1e-6
		cfg := audio.Config{
			SampleRate:   nw.params.SampleRate,
			SpeakerSkew:  ppm * (2*nw.rng.Float64() - 1),
			MicSkew:      ppm * (2*nw.rng.Float64() - 1),
			SpeakerStart: 0.05 * nw.rng.Float64(),
			MicStart:     0.05 * nw.rng.Float64(),
			NumMics:      len(spec.Model.MicOffsets),
			Duration:     dur,
		}
		stack, err := audio.NewStack(cfg)
		if err != nil {
			return err
		}
		var sensor *depth.Sensor
		if spec.WatchGauge {
			sensor = depth.NewWatchGauge(nw.rng)
		} else {
			sensor = depth.NewPhoneBarometer(nw.rng)
		}
		nw.devices = append(nw.devices, &simDevice{
			id:    i,
			spec:  spec,
			stack: stack,
			ranger: ranging.NewRanger(nw.params, ranging.DetectorConfig{}, ranging.DirectPathConfig{
				MaxMicOffset: micOffsetSamples(spec.Model.MicSeparation(), nw.params.SampleRate),
			}),
			sensor:  sensor,
			txIndex: -1,
			heard:   make(map[int]heardMsg),
		})
	}
	return nil
}

func micOffsetSamples(sepM, fs float64) int {
	return int(math.Ceil(sepM*fs/1400)) + 1 // conservative c = 1400 m/s
}

func (nw *Network) addNoise() {
	for _, d := range nw.devices {
		for mi := 0; mi < d.stack.NumMics(); mi++ {
			stream := d.stack.Mic(mi)
			nw.env.AddNoise(stream, nw.params.SampleRate, nw.rng)
			// Per-mic hardware self-noise (§2.2: each microphone has its
			// own noise profile).
			rms := d.spec.Model.MicNoiseRMS[mi]
			for i := range stream {
				stream[i] += rms * nw.rng.NormFloat64()
			}
		}
	}
}

// calibrateAll plays and detects the self-calibration chirp on every
// device (appendix, Fig. 21). ctx is checked once per device scan.
func (nw *Network) calibrateAll(ctx context.Context) error {
	bank := calibrationBank(nw.params)
	wave := bank.Matcher(0).Template() // shared, read-only; WriteSpeaker and rendering copy
	fs := nw.params.SampleRate
	// All devices write, then all detect (cross-talk is rendered too:
	// remote calibrations are far weaker than the near-field loopback).
	idxs := make([]int, len(nw.devices))
	for i, d := range nw.devices {
		idx := int(calWriteAt * fs)
		idxs[i] = idx
		d.stack.WriteSpeaker(idx, wave)
		nw.renderTransmission(d, idx, wave, d.stack.SpeakerIndexToTime(float64(idx)), everyMic)
	}
	for i, d := range nw.devices {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := int(calWindowEnd * fs)
		// The chirp scan runs as an ingest pipeline with an online argmax
		// consumer: correlation lags are consumed as each audio buffer
		// arrives and scratch stays bounded at one FFT block, instead of
		// materializing a window-sized correlation slab.
		pipe := ingest.New(ingest.Config{
			Bank:       bank,
			SampleRate: fs,
			Meter:      nw.cfg.IngestMeter,
		})
		argmax := ingest.NewArgMax(0)
		pipe.Register(argmax)
		for chunk := range d.stack.MicChunksRange(0, 0, end, nw.ingestChunk()) {
			pipe.Push(chunk)
		}
		pipe.Close()
		if argmax.Count() == 0 {
			return fmt.Errorf("sim: calibration window too short on device %d", d.id)
		}
		bestIdx, _ := argmax.Best()
		if bestIdx < 0 {
			return fmt.Errorf("sim: calibration not detected on device %d", d.id)
		}
		d.stack.Calibrate(idxs[i], bestIdx)
	}
	return nil
}

// scheduleReply lets device d sync to the first message it can currently
// hear and schedules + renders its protocol reply. Returns false when the
// device hears nothing yet.
func (nw *Network) scheduleReply(d *simDevice) bool {
	if d.txIndex >= 0 {
		return true
	}
	first, senderID, ok := nw.firstDetectedMessage(d)
	if !ok {
		return false
	}
	offset, src := nw.proto.TransmitOffset(d.id, senderID)
	d.sync = src
	m2 := int(math.Round(first.ArrivalIdx))
	txIdx := d.stack.ReplyIndex(m2, offset)
	wave := nw.messageWave(d.id, src.From)
	d.txIndex = txIdx
	d.stack.WriteSpeaker(txIdx, wave)
	nw.renderTransmission(d, txIdx, wave, d.stack.SpeakerIndexToTime(float64(txIdx)), everyMic)
	releaseWave(wave)
	return true
}

// heardMsg pairs an arrival with the sync-source ID the sender announced.
type heardMsg struct {
	toa      ranging.TOAResult
	syncFrom int // announced sync source; −1 when the field was undecodable
}

// firstDetectedMessage runs the receiver pipeline and returns the earliest
// foreign message currently in the stream.
func (nw *Network) firstDetectedMessage(d *simDevice) (ranging.TOAResult, int, bool) {
	results := nw.detectMessages(d)
	bestIdx := -1
	bestArrival := math.Inf(1)
	for k, r := range results {
		if r.sender == d.id {
			continue
		}
		if r.toa.ArrivalIdx < bestArrival {
			bestArrival = r.toa.ArrivalIdx
			bestIdx = k
		}
	}
	if bestIdx < 0 {
		return ranging.TOAResult{}, 0, false
	}
	return results[bestIdx].toa, results[bestIdx].sender, true
}

type detected struct {
	toa      ranging.TOAResult
	sender   int
	syncFrom int
}

// detectChunk is the default audio-buffer size the receiver pipelines
// consume at a time, matching typical OpenSL ES buffer grain (~93 ms at
// 44.1 kHz). Round results are invariant to this value — every ingest
// pipeline correlates on a fixed absolute block grid, proven
// chunk-partition-exact by the equivalence harnesses — so it only shapes
// memory traffic. Config.IngestChunk overrides it.
const detectChunk = 4096

// ingestChunk returns the audio-buffer size every ingest pipeline of the
// round is fed with.
func (nw *Network) ingestChunk() int {
	if nw.cfg.IngestChunk > 0 {
		return nw.cfg.IngestChunk
	}
	return detectChunk
}

// receive runs the device's §2.2 receiver over its current streams, the
// one receive path of rounds and ranging exchanges alike. Detection runs
// on mic primary's streaming pipeline exactly as a phone would run it —
// buffer by buffer as the OS delivers audio; refinement then revisits the
// complete streams (channel estimation needs the raw samples around each
// detection anyway), joined by mic second's when second ≥ 0.
func (nw *Network) receive(d *simDevice, primary, second int) ([]ranging.TOAResult, error) {
	sd := d.ranger.Detector.StreamWith(nw.cfg.IngestMeter)
	for chunk := range d.stack.MicChunks(primary, nw.ingestChunk()) {
		sd.Feed(chunk)
	}
	var mic2 []float64
	if second >= 0 {
		mic2 = d.stack.Mic(second)
	}
	return d.ranger.Refine(d.stack.Mic(primary), mic2, sd.Flush())
}

// detectMessages runs the receiver (both mics when the device has two)
// and MFSK-decodes each arrival's sender ID, then sync-source ID.
func (nw *Network) detectMessages(d *simDevice) []detected {
	second := -1
	if d.stack.NumMics() > 1 {
		second = 1
	}
	toas, err := nw.receive(d, 0, second)
	if err != nil {
		return nil
	}
	mic0 := d.stack.Mic(0)
	mfsk := sig.NewMFSK(nw.N(), nw.params.SampleRate)
	half := nw.idLen / 2
	var out []detected
	for _, toa := range toas {
		idStart := toa.Detection.CoarseIndex + nw.params.PreambleLen()
		idEnd := idStart + nw.idLen
		if idEnd > len(mic0) {
			continue
		}
		id, conf := mfsk.DecodeID(mic0[idStart : idStart+half])
		if conf < 1.2 {
			continue // ambiguous ID: treat as lost
		}
		syncID, sconf := mfsk.DecodeID(mic0[idStart+half : idEnd])
		if sconf < 1.2 {
			syncID = -1
		}
		out = append(out, detected{toa: toa, sender: id, syncFrom: syncID})
	}
	return out
}

// processArrivals populates d.heard from the final streams.
func (nw *Network) processArrivals(d *simDevice) error {
	d.heard = make(map[int]heardMsg)
	for _, det := range nw.detectMessages(d) {
		if det.sender == d.id {
			continue
		}
		// Keep the earliest arrival per sender (echo or duplicate
		// detection keeps the direct one).
		if prev, ok := d.heard[det.sender]; !ok || det.toa.ArrivalIdx < prev.toa.ArrivalIdx {
			d.heard[det.sender] = heardMsg{toa: det.toa, syncFrom: det.syncFrom}
		}
	}
	return nil
}

// localTime converts a mic-stream index to the device's local seconds.
func (nw *Network) localTime(idx float64) float64 { return idx / nw.params.SampleRate }

// ownTxLocalTime returns T^i_i: the device's own transmission expressed in
// its mic-stream clock via the calibration offset.
func (d *simDevice) ownTxLocalTime(fs float64) float64 {
	return float64(d.txIndex-d.stack.IndexOffset()) / fs
}

// rebase returns the device's local-zero (the arrival of its sync source
// minus that source's slot time), letting timestamps be expressed in the
// protocol's slot-relative convention for report compression.
func (nw *Network) rebase(d *simDevice) (float64, bool) {
	src := d.sync.From
	arr, ok := d.heard[src]
	if !ok {
		return 0, false
	}
	slot := 0.0
	if src != 0 {
		slot = nw.proto.SlotTime(src)
	}
	return nw.localTime(arr.toa.ArrivalIdx) - slot, true
}

// assembleTable builds the leader's timestamp table: its own observations
// directly, remote rows via the report-back channel (or losslessly when
// DisableReportBack).
func (nw *Network) assembleTable(res *RoundResult) (*protocol.Table, error) {
	n := nw.N()
	fs := nw.params.SampleRate
	table := protocol.NewTable(n)
	leader := nw.devices[0]
	// Leader row.
	if leader.txIndex >= 0 {
		table.Observe(0, 0, leader.ownTxLocalTime(fs))
	}
	for j, msg := range leader.heard {
		table.Observe(0, j, nw.localTime(msg.toa.ArrivalIdx))
	}
	if nw.cfg.DisableReportBack {
		for _, d := range nw.devices[1:] {
			if d.txIndex < 0 {
				continue
			}
			table.Observe(d.id, d.id, d.ownTxLocalTime(fs))
			for j, msg := range d.heard {
				table.Observe(d.id, j, nw.localTime(msg.toa.ArrivalIdx))
			}
		}
		return table, nil
	}
	// Slot arithmetic from announced sync sources: a leader-synced device
	// transmits at exactly slot_i in a clock zeroed on the leader's
	// message (§2.3), so the leader can fill Tⁱᵢ = slot_i and Tⁱ₀ = 0
	// without the report — ranging to such devices survives report loss.
	for j, msg := range leader.heard {
		if msg.syncFrom == 0 {
			table.Observe(j, j, nw.proto.SlotTime(j))
			table.Observe(j, 0, 0)
		}
	}
	// Full §2.4 report-back.
	if err := nw.reportBack(res, table); err != nil {
		return nil, err
	}
	return table, nil
}

// reportBack runs the FSK report phase and reconstructs remote rows at the
// leader from the decoded, quantized reports.
func (nw *Network) reportBack(res *RoundResult, table *protocol.Table) error {
	n := nw.N()
	fs := nw.params.SampleRate
	modem := comm.NewModem(n, fs) // validated by NewNetwork
	// Each replying device transmits its report in its sub-band.
	for _, d := range nw.devices[1:] {
		if d.txIndex < 0 {
			continue
		}
		zero, ok := nw.rebase(d)
		if !ok {
			continue
		}
		rep := &comm.Report{
			DeviceID:    d.id,
			DepthM:      nw.sensorDepths[d.id],
			OffsetsSamp: make([]float64, n),
		}
		for j := 0; j < n; j++ {
			rep.OffsetsSamp[j] = math.NaN()
		}
		for j, msg := range d.heard {
			if j == 0 {
				// The leader's arrival defines the local zero: its
				// offset is identically 0, and its presence in the
				// report doubles as the heard-leader flag.
				rep.OffsetsSamp[0] = 0
				continue
			}
			diff := (nw.localTime(msg.toa.ArrivalIdx) - zero - nw.proto.SlotTime(j)) * fs
			// Near-collinear geometries make the theoretical bound
			// diff ≥ 0 brush against estimation noise; clamp small
			// negatives rather than losing the link.
			if diff < 0 && diff > -64 {
				diff = 0
			}
			if diff < 0 || diff >= comm.MaxTimestampSteps*comm.TimestampScale {
				continue // outside the representable window: drop
			}
			rep.OffsetsSamp[j] = diff
		}
		wave, err := modem.TransmitReport(rep)
		if err != nil {
			return err
		}
		// Transmit at the common report slot, local-rebased.
		syncArr := d.heard[d.sync.From]
		slot := 0.0
		if d.sync.From != 0 {
			slot = nw.proto.SlotTime(d.sync.From)
		}
		// All devices report simultaneously in disjoint FSK sub-bands
		// (§2.4), so the report slot is common, and only the leader's
		// mic 0 is demodulated below.
		offset := nw.reportAt() - slot
		txIdx := d.stack.ReplyIndex(int(math.Round(syncArr.toa.ArrivalIdx)), offset)
		d.stack.WriteSpeaker(txIdx, wave)
		nw.renderTransmission(d, txIdx, wave, d.stack.SpeakerIndexToTime(float64(txIdx)), leaderMic0)
	}
	// Leader demodulates each device's band; alignment is predicted from
	// the device's ranging arrival plus the slot arithmetic.
	leader := nw.devices[0]
	mic := leader.stack.Mic(0)
	for _, d := range nw.devices[1:] {
		if d.txIndex < 0 {
			continue
		}
		msg, ok := leader.heard[d.id]
		if !ok {
			continue // cannot align (nor would the link matter: no ranging)
		}
		start := msg.toa.ArrivalIdx + (nw.reportAt()-nw.proto.SlotTime(d.id))*fs
		rep, err := modem.ReceiveReport(mic, int(math.Round(start)), d.id)
		if err != nil {
			continue // corrupted report: row stays missing
		}
		res.Depths[d.id] = rep.DepthM
		// Reconstruct the row in slot-relative local time.
		table.Observe(d.id, d.id, nw.proto.SlotTime(d.id))
		if rep.HeardBitmask&1 != 0 && !math.IsNaN(rep.OffsetsSamp[0]) {
			table.Observe(d.id, 0, 0)
		}
		for j := 1; j < n; j++ {
			if j == d.id || math.IsNaN(rep.OffsetsSamp[j]) {
				continue
			}
			table.Observe(d.id, j, nw.proto.SlotTime(j)+rep.OffsetsSamp[j]/fs)
		}
	}
	return nil
}

// fillDepths draws every device's sensor reading; whether the leader
// learns a remote value depends on the report path, so sensorDepths keeps
// the device-side readings and res.Depths starts with only the leader's
// own (remote entries are NaN until reports arrive; NaN survivors fall
// back to the group median in finishDepths).
func (nw *Network) fillDepths(res *RoundResult) {
	n := nw.N()
	res.Depths = make([]float64, n)
	nw.sensorDepths = make([]float64, n)
	for i, d := range nw.devices {
		reading := d.sensor.Read(res.TrueDepths[i], nw.rng)
		q, err := depth.Quantize(reading)
		if err != nil {
			q = reading
		}
		nw.sensorDepths[i] = q
		if i == 0 || nw.cfg.DisableReportBack {
			res.Depths[i] = q
		} else {
			res.Depths[i] = math.NaN()
		}
	}
}

// finishDepths replaces any depth the leader never learned with the median
// of the known ones — a graceful-degradation heuristic for lost reports.
func finishDepths(depths []float64) {
	var known []float64
	for _, v := range depths {
		if !math.IsNaN(v) {
			known = append(known, v)
		}
	}
	if len(known) == 0 {
		for i := range depths {
			depths[i] = 0
		}
		return
	}
	sort.Float64s(known)
	med := known[len(known)/2]
	for i := range depths {
		if math.IsNaN(depths[i]) {
			depths[i] = med
		}
	}
}

func (nw *Network) fillMicSigns(res *RoundResult) {
	res.MicSigns = make([]int, nw.N())
	leader := nw.devices[0]
	for j, msg := range leader.heard {
		if msg.toa.DualMicOK {
			res.MicSigns[j] = msg.toa.MicSign
		}
	}
}

func (nw *Network) trueDistances() [][]float64 {
	n := nw.N()
	tQuery := queryAt
	pos := nw.TruePositions(tQuery)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = pos[i].Dist(pos[j])
		}
	}
	return d
}

func (nw *Network) trueDepths() []float64 {
	pos := nw.TruePositions(queryAt)
	out := make([]float64, len(pos))
	for i, p := range pos {
		out[i] = p.Z
	}
	return out
}

func (nw *Network) measureLatency() float64 {
	leader := nw.devices[0]
	if leader.txIndex < 0 {
		return 0
	}
	t0 := leader.ownTxLocalTime(nw.params.SampleRate)
	last := t0
	for _, msg := range leader.heard {
		if t := nw.localTime(msg.toa.ArrivalIdx); t > last {
			last = t
		}
	}
	return last - t0 + nw.proto.TPacket
}

// calibrationBank builds the single-template bank calibrateAll scans
// with. Its matcher is the process-wide sig.SharedMatcher for the
// self-calibration chirp: the waveform and its spectra are pure functions
// of the Params, so every trial and every engine worker share one
// precomputed matcher, and the bank around it costs one small struct.
func calibrationBank(p sig.Params) *dsp.MatcherBank {
	return dsp.NewMatcherBank(sig.SharedMatcher("calibration", p, func(p sig.Params) []float64 {
		return p.CalibrationSignal(0)
	}))
}
