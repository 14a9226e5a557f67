package core

import (
	"errors"
	"fmt"

	"dpd/internal/wire"
)

// State checkpoint codec: every engine adapter serializes its complete
// run-time state — the underlying detector's lag banks (via the series
// codecs), its lock/segment fields, and the adapter's own tracking
// counters — behind a per-engine type tag and a format version. A
// restored engine produces byte-identical Result and Stat sequences to
// one that never stopped; the differential tests in codec_test.go pin
// that property for all four engines.
//
// Layout of one engine checkpoint:
//
//	tag u8 | version u8 |
//	structural header (multiscale: ladder windows; adaptive: policy) |
//	detector state (leads with its Config) | track counters
//
// Decoding is built on wire.Dec and never panics, never reads past the
// input, and never allocates more than a small constant factor of the
// input length — a hostile few-byte spec cannot demand a huge bank
// allocation, because every allocation is gated on the input actually
// containing that bank's bulk arrays.

// Engine type tags. The tag is the first byte of an engine checkpoint
// and selects the constructor on restore; it never changes meaning
// across versions.
const (
	// TagEvent marks an EventEngine checkpoint (paper eq. 2).
	TagEvent uint8 = 1
	// TagMagnitude marks a MagnitudeEngine checkpoint (paper eq. 1).
	TagMagnitude uint8 = 2
	// TagMultiScale marks a MultiScaleEngine checkpoint (window ladder).
	TagMultiScale uint8 = 3
	// TagAdaptive marks an AdaptiveEngine checkpoint (managed window).
	TagAdaptive uint8 = 4
)

// StateVersion is the checkpoint format version this build writes; a
// decoder rejects other versions rather than guessing at their layout.
const StateVersion = 1

// maxCounter bounds decoded free-running counters (confirmation runs,
// resize counts) so a corrupted varint cannot smuggle a negative value
// through an int conversion.
const maxCounter = 1 << 31

// StateCodec is the two-method checkpoint surface every engine adapter
// implements, mirroring the series-level codecs: AppendState appends
// the complete engine state to buf (allocation-free when the capacity
// suffices), LoadState restores it and returns the bytes consumed.
type StateCodec interface {
	// AppendState appends the engine's checkpoint to buf.
	AppendState(buf []byte) []byte
	// LoadState restores the engine from a checkpoint produced by
	// AppendState on an engine of the same configuration.
	LoadState(data []byte) (int, error)
}

// Spec identifies the engine kind and construction-time configuration
// of a checkpoint, decoded without restoring any state. Restore uses it
// to rebuild the engine; callers use it to validate that a checkpoint
// matches an expected configuration before adopting it.
type Spec struct {
	// Tag is the engine type tag (TagEvent, TagMagnitude, …).
	Tag uint8
	// Cfg is the detector configuration. For event and magnitude
	// engines all fields are meaningful; for multi-scale and adaptive
	// engines Window and MaxLag are zero (each level / the policy owns
	// the window) and only Confirm, Grace and RelThreshold apply.
	Cfg Config
	// Ladder is the multi-scale window ladder (nil for other engines).
	Ladder []int
	// Policy is the adaptive window policy (zero for other engines).
	Policy AdaptivePolicy
}

// EngineName returns the option-surface name of the engine kind.
func (s Spec) EngineName() string {
	switch s.Tag {
	case TagEvent:
		return "event"
	case TagMagnitude:
		return "magnitude"
	case TagMultiScale:
		return "multiscale"
	case TagAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("engine-tag(%d)", s.Tag)
}

// Equal reports whether two specs describe the same engine kind and
// configuration.
func (s Spec) Equal(o Spec) bool {
	if s.Tag != o.Tag || s.Cfg != o.Cfg || s.Policy != o.Policy || len(s.Ladder) != len(o.Ladder) {
		return false
	}
	for i, w := range s.Ladder {
		if o.Ladder[i] != w {
			return false
		}
	}
	return true
}

// appendConfig appends the five Config fields.
func appendConfig(buf []byte, c Config) []byte {
	buf = wire.AppendUint(buf, c.Window)
	buf = wire.AppendUint(buf, c.MaxLag)
	buf = wire.AppendUint(buf, c.Confirm)
	buf = wire.AppendUint(buf, c.Grace)
	buf = wire.AppendF64(buf, c.RelThreshold)
	return buf
}

// decodeConfig reads a Config and validates it through the same rules
// as construction, so a decoded configuration is always one a
// constructor would accept.
func decodeConfig(d *wire.Dec) (Config, error) {
	var c Config
	c.Window = d.Uint(MaxWindow)
	c.MaxLag = d.Uint(MaxWindow)
	c.Confirm = d.Uint(maxCounter)
	c.Grace = d.Uint(maxCounter)
	c.RelThreshold = d.F64()
	if err := d.Err(); err != nil {
		return c, err
	}
	c, err := c.withDefaults()
	if err != nil {
		return c, err
	}
	return c, nil
}

// appendPolicy appends the five AdaptivePolicy fields.
func appendPolicy(buf []byte, p AdaptivePolicy) []byte {
	buf = wire.AppendUint(buf, p.MinWindow)
	buf = wire.AppendUint(buf, p.MaxWindow)
	buf = wire.AppendUint(buf, p.ShrinkAfter)
	buf = wire.AppendUint(buf, p.GrowAfter)
	buf = wire.AppendF64(buf, p.Headroom)
	return buf
}

// decodePolicy reads and validates an AdaptivePolicy.
func decodePolicy(d *wire.Dec) (AdaptivePolicy, error) {
	var p AdaptivePolicy
	p.MinWindow = d.Uint(MaxWindow)
	p.MaxWindow = d.Uint(MaxWindow)
	p.ShrinkAfter = d.Uint(maxCounter)
	p.GrowAfter = d.Uint(maxCounter)
	p.Headroom = d.F64()
	if err := d.Err(); err != nil {
		return p, err
	}
	if err := p.validate(); err != nil {
		return p, err
	}
	return p, nil
}

// countBankBytes is the bulk-array size of an event lag bank's encoded
// state for a configuration: the allocation gate used before any
// geometry-changing restore.
func countBankBytes(c Config) int {
	wpl := (c.MaxLag + 63) / 64
	return 8 * (c.Window*wpl + wpl + c.MaxLag)
}

// sumBankBytes is the bulk-array size of a magnitude lag bank's encoded
// state for a configuration.
func sumBankBytes(c Config) int {
	return 8 * (c.MaxLag*c.Window + c.MaxLag)
}

// AppendState appends the detector's full state: configuration, lag
// bank, and the lock/segmentation fields.
func (d *EventDetector) AppendState(buf []byte) []byte {
	buf = appendConfig(buf, d.cfg)
	buf = d.lv.AppendState(buf)
	buf = appendBool(buf, d.locked)
	buf = wire.AppendUint(buf, d.period)
	buf = wire.AppendUvarint(buf, d.anchor)
	buf = wire.AppendUint(buf, d.graceLeft)
	buf = wire.AppendUvarint(buf, d.t)
	return buf
}

// LoadState restores the detector from data, returning the bytes
// consumed. The encoded configuration replaces the receiver's when they
// differ (the adaptive engine checkpoints mid-resize windows); the bank
// is reallocated only after the input is verified to actually carry a
// bank of that geometry. A ladder level refuses: its ladder loads the
// shared bank around its levels. On error the receiver's state is
// unspecified — restore into a fresh detector.
func (d *EventDetector) LoadState(data []byte) (int, error) {
	if d.bank == nil {
		return 0, errors.New(d.levelMisuse("load state into"))
	}
	return d.loadState(data)
}

// loadState is LoadState for both a standalone detector and a ladder
// level; a level's geometry is fixed by its ladder, which must call this
// between its bank's StartLoad and FinishLoad.
func (d *EventDetector) loadState(data []byte) (int, error) {
	dec := wire.NewDec(data)
	cfg, err := decodeConfig(dec)
	if err != nil {
		return 0, fmt.Errorf("core: event state config: %w", err)
	}
	switch {
	case cfg == d.cfg:
	case d.bank == nil && (cfg.Window != d.cfg.Window || cfg.MaxLag != d.cfg.MaxLag):
		return 0, fmt.Errorf("core: ladder level of window %d, max lag %d cannot load state of window %d, max lag %d",
			d.cfg.Window, d.cfg.MaxLag, cfg.Window, cfg.MaxLag)
	case d.bank == nil:
		d.cfg = cfg // the geometry is the ladder's, the lock settings the level's
	case dec.Remaining() < countBankBytes(cfg):
		return 0, fmt.Errorf("%w: event state shorter than its declared %d-byte bank", wire.ErrTruncated, countBankBytes(cfg))
	default:
		d.cfg = cfg
		d.alloc()
	}
	var n int
	if d.bank == nil {
		n, err = d.lv.LoadState(data[dec.Offset():])
	} else {
		n, err = d.bank.LoadState(data[dec.Offset():])
	}
	if err != nil {
		return 0, err
	}
	dec.Bytes(n)
	locked := decodeBool(dec)
	period := dec.Uint(cfg.MaxLag)
	anchor := dec.Uvarint()
	graceLeft := dec.Uint(cfg.Grace)
	t := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return 0, fmt.Errorf("core: event state: %w", err)
	}
	if locked && period < 1 {
		return 0, errors.New("core: event state locked without a period")
	}
	if locked && anchor > t {
		return 0, fmt.Errorf("core: event state anchors its lock at sample %d, past its clock %d", anchor, t)
	}
	d.locked, d.period, d.anchor, d.graceLeft, d.t = locked, period, anchor, graceLeft, t
	d.due, d.held = 0, 0
	return dec.Offset(), nil
}

// AppendState appends the detector's full state: configuration, lag
// bank, magnitude-scale EWMA, and the candidate/lock fields.
func (d *MagnitudeDetector) AppendState(buf []byte) []byte {
	buf = appendConfig(buf, d.cfg)
	buf = d.bank.AppendState(buf)
	buf = d.scale.AppendState(buf)
	buf = wire.AppendUint(buf, d.lastCand)
	buf = wire.AppendUint(buf, d.candRun)
	buf = appendBool(buf, d.locked)
	buf = wire.AppendUint(buf, d.period)
	buf = wire.AppendUvarint(buf, d.anchor)
	buf = wire.AppendUint(buf, d.graceLeft)
	buf = wire.AppendF64(buf, d.conf)
	buf = wire.AppendUvarint(buf, d.t)
	return buf
}

// LoadState restores the detector from data; see EventDetector.LoadState
// for the reallocation and error contract.
func (d *MagnitudeDetector) LoadState(data []byte) (int, error) {
	dec := wire.NewDec(data)
	cfg, err := decodeConfig(dec)
	if err != nil {
		return 0, fmt.Errorf("core: magnitude state config: %w", err)
	}
	if cfg != d.cfg {
		if dec.Remaining() < sumBankBytes(cfg) {
			return 0, fmt.Errorf("%w: magnitude state shorter than its declared %d-byte bank", wire.ErrTruncated, sumBankBytes(cfg))
		}
		d.cfg = cfg
		d.alloc()
	}
	n, err := d.bank.LoadState(data[dec.Offset():])
	if err != nil {
		return 0, err
	}
	dec.Bytes(n)
	n, err = d.scale.LoadState(data[dec.Offset():])
	if err != nil {
		return 0, err
	}
	dec.Bytes(n)
	lastCand := dec.Uint(cfg.MaxLag)
	candRun := dec.Uint(maxCounter)
	locked := decodeBool(dec)
	period := dec.Uint(cfg.MaxLag)
	anchor := dec.Uvarint()
	graceLeft := dec.Uint(cfg.Grace)
	conf := dec.F64()
	t := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return 0, fmt.Errorf("core: magnitude state: %w", err)
	}
	if locked && period < 1 {
		return 0, errors.New("core: magnitude state locked without a period")
	}
	if locked && anchor > t {
		return 0, fmt.Errorf("core: magnitude state anchors its lock at sample %d, past its clock %d", anchor, t)
	}
	d.lastCand, d.candRun = lastCand, candRun
	d.locked, d.period, d.anchor, d.graceLeft, d.conf = locked, period, anchor, graceLeft, conf
	d.t, d.due = t, 0
	return dec.Offset(), nil
}

// AppendState appends the ladder's full state: every level's detector
// state, the wake cursor, the samples the sleeping levels will replay,
// and the sample clock.
func (ms *MultiScaleDetector) AppendState(buf []byte) []byte {
	buf = wire.AppendUint(buf, len(ms.levels))
	for _, det := range ms.levels {
		buf = det.AppendState(buf)
	}
	buf = wire.AppendUint(buf, ms.bank.Awake())
	buf = ms.bank.AppendPending(buf)
	buf = wire.AppendUvarint(buf, ms.bank.Len())
	return buf
}

// LoadState restores the ladder from data. The level count and every
// level's window must match the receiver's construction: the ladder's
// structure is configuration, not state. The shared bank's history is
// rebuilt from the levels' histories and the pending samples, which must
// agree.
func (ms *MultiScaleDetector) LoadState(data []byte) (int, error) {
	dec := wire.NewDec(data)
	n := dec.Uint(MaxWindow)
	if dec.Err() == nil && n != len(ms.levels) {
		return 0, fmt.Errorf("core: ladder of %d levels cannot load state of %d levels", len(ms.levels), n)
	}
	ms.bank.StartLoad()
	for i, det := range ms.levels {
		consumed, err := det.loadState(data[dec.Offset():])
		if err != nil {
			return 0, fmt.Errorf("core: ladder level %d: %w", i, err)
		}
		dec.Bytes(consumed)
	}
	awake := dec.Uint(len(ms.levels))
	if dec.Err() == nil {
		consumed, err := ms.bank.LoadPending(data[dec.Offset():])
		if err != nil {
			return 0, fmt.Errorf("core: ladder state: %w", err)
		}
		dec.Bytes(consumed)
	}
	t := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return 0, fmt.Errorf("core: ladder state: %w", err)
	}
	if err := ms.bank.FinishLoad(t); err != nil {
		return 0, fmt.Errorf("core: ladder state: %w", err)
	}
	if awake != ms.bank.Awake() {
		return 0, fmt.Errorf("core: ladder state wakes %d levels at sample %d, its windows wake %d", awake, t, ms.bank.Awake())
	}
	for i, det := range ms.levels {
		want := uint64(0) // a sleeping level has seen nothing yet
		if i < awake {
			want = t
		}
		if det.t != want {
			return 0, fmt.Errorf("core: ladder level %d has seen %d samples, want %d", i, det.t, want)
		}
	}
	return dec.Offset(), nil
}

// AppendState appends the adaptive detector's full state: the wrapped
// event detector (including its current, possibly policy-shrunken
// configuration) and the policy's run counters.
func (a *AdaptiveDetector) AppendState(buf []byte) []byte {
	buf = a.det.AppendState(buf)
	buf = wire.AppendUint(buf, a.lockedRun)
	buf = wire.AppendUint(buf, a.unlockedRun)
	buf = wire.AppendUint(buf, a.resizes)
	return buf
}

// LoadState restores the adaptive detector from data. The policy itself
// is construction configuration and is not decoded here; the wrapped
// detector adopts the checkpoint's current window.
func (a *AdaptiveDetector) LoadState(data []byte) (int, error) {
	dec := wire.NewDec(data)
	consumed, err := a.det.LoadState(data)
	if err != nil {
		return 0, err
	}
	dec.Bytes(consumed)
	lockedRun := dec.Uint(maxCounter)
	unlockedRun := dec.Uint(maxCounter)
	resizes := dec.Uint(maxCounter)
	if err := dec.Err(); err != nil {
		return 0, fmt.Errorf("core: adaptive state: %w", err)
	}
	a.lockedRun, a.unlockedRun, a.resizes = lockedRun, unlockedRun, resizes
	return dec.Offset(), nil
}

// appendTrack appends the adapter-level segmentation counters.
func (tr *track) appendState(buf []byte) []byte {
	buf = appendBool(buf, tr.locked)
	buf = wire.AppendUint(buf, tr.period)
	buf = wire.AppendUvarint(buf, tr.starts)
	buf = wire.AppendUvarint(buf, tr.lastStart)
	return buf
}

// loadState restores the adapter-level counters; the observer
// registration (and its scratch) is runtime wiring, not state.
func (tr *track) loadState(dec *wire.Dec) {
	tr.locked = decodeBool(dec)
	tr.period = dec.Uint(MaxWindow)
	tr.starts = dec.Uvarint()
	tr.lastStart = dec.Uvarint()
}

// appendHeader appends the engine tag and format version.
func appendHeader(buf []byte, tag uint8) []byte {
	return wire.AppendU8(wire.AppendU8(buf, tag), StateVersion)
}

// decodeHeader reads and validates the engine tag and format version.
func decodeHeader(dec *wire.Dec) (uint8, error) {
	tag := dec.U8()
	version := dec.U8()
	if err := dec.Err(); err != nil {
		return 0, err
	}
	if tag < TagEvent || tag > TagAdaptive {
		return 0, fmt.Errorf("core: unknown engine tag %d", tag)
	}
	if version != StateVersion {
		return 0, fmt.Errorf("core: unsupported state format version %d (this build reads version %d)", version, StateVersion)
	}
	return tag, nil
}

// expectTag verifies that a checkpoint targets the receiver's engine.
func expectTag(dec *wire.Dec, want uint8) error {
	tag, err := decodeHeader(dec)
	if err != nil {
		return err
	}
	if tag != want {
		return fmt.Errorf("core: checkpoint is for the %s engine, not %s", Spec{Tag: tag}.EngineName(), Spec{Tag: want}.EngineName())
	}
	return nil
}

// AppendState implements StateCodec: tag, version, detector state,
// tracking counters.
func (e *EventEngine) AppendState(buf []byte) []byte {
	buf = appendHeader(buf, TagEvent)
	buf = e.det.AppendState(buf)
	return e.tr.appendState(buf)
}

// LoadState implements StateCodec.
func (e *EventEngine) LoadState(data []byte) (int, error) {
	dec := wire.NewDec(data)
	if err := expectTag(dec, TagEvent); err != nil {
		return 0, err
	}
	n, err := e.det.LoadState(data[dec.Offset():])
	if err != nil {
		return 0, err
	}
	dec.Bytes(n)
	e.tr.loadState(dec)
	if err := dec.Err(); err != nil {
		return 0, fmt.Errorf("core: event engine state: %w", err)
	}
	return dec.Offset(), nil
}

// AppendState implements StateCodec.
func (e *MagnitudeEngine) AppendState(buf []byte) []byte {
	buf = appendHeader(buf, TagMagnitude)
	buf = e.det.AppendState(buf)
	return e.tr.appendState(buf)
}

// LoadState implements StateCodec.
func (e *MagnitudeEngine) LoadState(data []byte) (int, error) {
	dec := wire.NewDec(data)
	if err := expectTag(dec, TagMagnitude); err != nil {
		return 0, err
	}
	n, err := e.det.LoadState(data[dec.Offset():])
	if err != nil {
		return 0, err
	}
	dec.Bytes(n)
	e.tr.loadState(dec)
	if err := dec.Err(); err != nil {
		return 0, fmt.Errorf("core: magnitude engine state: %w", err)
	}
	return dec.Offset(), nil
}

// AppendState implements StateCodec: the structural header carries the
// ladder windows so Restore can rebuild the levels before loading them.
func (e *MultiScaleEngine) AppendState(buf []byte) []byte {
	buf = appendHeader(buf, TagMultiScale)
	buf = wire.AppendUint(buf, e.ms.Levels())
	for i := 0; i < e.ms.Levels(); i++ {
		buf = wire.AppendUint(buf, e.ms.Level(i).Window())
	}
	buf = e.ms.AppendState(buf)
	return e.tr.appendState(buf)
}

// LoadState implements StateCodec; the encoded ladder must match the
// receiver's construction.
func (e *MultiScaleEngine) LoadState(data []byte) (int, error) {
	dec := wire.NewDec(data)
	if err := expectTag(dec, TagMultiScale); err != nil {
		return 0, err
	}
	windows, err := decodeLadder(dec)
	if err != nil {
		return 0, err
	}
	if len(windows) != e.ms.Levels() {
		return 0, fmt.Errorf("core: checkpoint ladder has %d levels, engine has %d", len(windows), e.ms.Levels())
	}
	for i, w := range windows {
		if w != e.ms.Level(i).Window() {
			return 0, fmt.Errorf("core: checkpoint ladder level %d has window %d, engine has %d", i, w, e.ms.Level(i).Window())
		}
	}
	n, err := e.ms.LoadState(data[dec.Offset():])
	if err != nil {
		return 0, err
	}
	dec.Bytes(n)
	e.tr.loadState(dec)
	if err := dec.Err(); err != nil {
		return 0, fmt.Errorf("core: multiscale engine state: %w", err)
	}
	return dec.Offset(), nil
}

// AppendState implements StateCodec: the structural header carries the
// window policy so Restore can rebuild the wrapper before loading it.
func (e *AdaptiveEngine) AppendState(buf []byte) []byte {
	buf = appendHeader(buf, TagAdaptive)
	buf = appendPolicy(buf, e.a.policy)
	buf = e.a.AppendState(buf)
	return e.tr.appendState(buf)
}

// LoadState implements StateCodec; the encoded policy must match the
// receiver's construction.
func (e *AdaptiveEngine) LoadState(data []byte) (int, error) {
	dec := wire.NewDec(data)
	if err := expectTag(dec, TagAdaptive); err != nil {
		return 0, err
	}
	policy, err := decodePolicy(dec)
	if err != nil {
		return 0, err
	}
	if policy != e.a.policy {
		return 0, fmt.Errorf("core: checkpoint policy %+v does not match engine policy %+v", policy, e.a.policy)
	}
	n, err := e.a.LoadState(data[dec.Offset():])
	if err != nil {
		return 0, err
	}
	dec.Bytes(n)
	e.tr.loadState(dec)
	if err := dec.Err(); err != nil {
		return 0, fmt.Errorf("core: adaptive engine state: %w", err)
	}
	return dec.Offset(), nil
}

// decodeLadder reads the multi-scale structural header: a level count
// and strictly increasing windows, validated like construction.
func decodeLadder(dec *wire.Dec) ([]int, error) {
	n := dec.Uint(MaxWindow)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errors.New("core: checkpoint has an empty window ladder")
	}
	// Each window costs at least one encoded byte, so gating on n bytes
	// bounds the slice allocation by the input length.
	if !dec.Need(n) {
		return nil, dec.Err()
	}
	windows := make([]int, n)
	prev := 1
	for i := range windows {
		w := dec.Uint(MaxWindow)
		if err := dec.Err(); err != nil {
			return nil, err
		}
		if w <= prev {
			return nil, fmt.Errorf("core: checkpoint ladder windows not strictly increasing at level %d", i)
		}
		windows[i] = w
		prev = w
	}
	return windows, nil
}

// AppendCheckpoint appends a complete engine checkpoint for d to buf.
// It fails only when d is not one of the four engine adapters (an
// injected custom Detector implementation has no codec). With
// sufficient buffer capacity the append performs no allocation.
func AppendCheckpoint(d Detector, buf []byte) ([]byte, error) {
	c, ok := d.(StateCodec)
	if !ok {
		return nil, fmt.Errorf("core: detector type %T has no state codec; only the built-in engines are checkpointable", d)
	}
	return c.AppendState(buf), nil
}

// DecodeSpec reads the engine kind and construction configuration of a
// checkpoint without restoring state. For multi-scale and adaptive
// checkpoints, the shared Confirm/Grace/RelThreshold settings are
// lifted from the first embedded detector configuration.
func DecodeSpec(data []byte) (Spec, error) {
	dec := wire.NewDec(data)
	tag, err := decodeHeader(dec)
	if err != nil {
		return Spec{}, err
	}
	spec := Spec{Tag: tag}
	switch tag {
	case TagMultiScale:
		if spec.Ladder, err = decodeLadder(dec); err != nil {
			return Spec{}, err
		}
		// Skip the ladder state's own level count to land on the first
		// level's embedded detector configuration.
		dec.Uint(MaxWindow)
	case TagAdaptive:
		if spec.Policy, err = decodePolicy(dec); err != nil {
			return Spec{}, err
		}
	}
	cfg, err := decodeConfig(dec)
	if err != nil {
		return Spec{}, fmt.Errorf("core: checkpoint config: %w", err)
	}
	if tag == TagMultiScale || tag == TagAdaptive {
		// The embedded config's window belongs to the level / the
		// current policy state, not to the construction surface.
		cfg.Window, cfg.MaxLag = 0, 0
	}
	spec.Cfg = cfg
	return spec, nil
}

// RestoreCheckpoint rebuilds an engine from a checkpoint produced by
// AppendCheckpoint: decode the spec, construct a fresh engine of that
// configuration, and load the state into it. Construction allocations
// are gated on the input actually containing the encoded banks, so a
// corrupted spec cannot demand absurd memory.
func RestoreCheckpoint(data []byte) (Detector, error) {
	spec, err := DecodeSpec(data)
	if err != nil {
		return nil, err
	}
	dec := wire.NewDec(data)
	if _, err := decodeHeader(dec); err != nil {
		return nil, err
	}
	var eng Detector
	switch spec.Tag {
	case TagEvent:
		if dec.Remaining() < countBankBytes(spec.Cfg) {
			return nil, fmt.Errorf("%w: event checkpoint shorter than its declared bank", wire.ErrTruncated)
		}
		d, err := NewEventDetector(spec.Cfg)
		if err != nil {
			return nil, err
		}
		eng = NewEventEngine(d)
	case TagMagnitude:
		if dec.Remaining() < sumBankBytes(spec.Cfg) {
			return nil, fmt.Errorf("%w: magnitude checkpoint shorter than its declared bank", wire.ErrTruncated)
		}
		d, err := NewMagnitudeDetector(spec.Cfg)
		if err != nil {
			return nil, err
		}
		eng = NewMagnitudeEngine(d)
	case TagMultiScale:
		need := 0
		for _, w := range spec.Ladder {
			need += countBankBytes(Config{Window: w, MaxLag: w - 1})
		}
		if dec.Remaining() < need {
			return nil, fmt.Errorf("%w: multiscale checkpoint shorter than its declared %d-byte ladder", wire.ErrTruncated, need)
		}
		d, err := NewMultiScaleDetector(spec.Ladder, spec.Cfg)
		if err != nil {
			return nil, err
		}
		eng = NewMultiScaleEngine(d)
	case TagAdaptive:
		// Peek the inner detector's current configuration and gate the
		// construction on it: an adaptive engine checkpointed after a
		// policy shrink is restored straight at the shrunken window,
		// never through an intermediate MaxWindow-sized allocation.
		pdec := wire.NewDec(data)
		if _, err := decodeHeader(pdec); err != nil {
			return nil, err
		}
		if _, err := decodePolicy(pdec); err != nil {
			return nil, err
		}
		innerCfg, err := decodeConfig(pdec)
		if err != nil {
			return nil, fmt.Errorf("core: adaptive checkpoint inner config: %w", err)
		}
		if pdec.Remaining() < countBankBytes(innerCfg) {
			return nil, fmt.Errorf("%w: adaptive checkpoint shorter than its declared bank", wire.ErrTruncated)
		}
		d, err := NewEventDetector(innerCfg)
		if err != nil {
			return nil, err
		}
		eng = NewAdaptiveEngine(&AdaptiveDetector{det: d, policy: spec.Policy})
	}
	codec := eng.(StateCodec)
	n, err := codec.LoadState(data)
	if err != nil {
		return nil, err
	}
	// A checkpoint is exactly one engine state: trailing bytes mean a
	// corrupted or mis-concatenated blob whose tail would silently be
	// dropped, so reject it loudly.
	if n != len(data) {
		return nil, fmt.Errorf("core: checkpoint has %d trailing bytes after the engine state", len(data)-n)
	}
	return eng, nil
}

// appendBool appends a bool as one byte.
func appendBool(buf []byte, v bool) []byte {
	var b uint8
	if v {
		b = 1
	}
	return wire.AppendU8(buf, b)
}

// decodeBool reads one byte as a bool (any non-zero value is true).
func decodeBool(dec *wire.Dec) bool {
	return dec.U8() != 0
}

// Compile-time conformance: every engine adapter implements StateCodec.
var (
	_ StateCodec = (*EventEngine)(nil)
	_ StateCodec = (*MagnitudeEngine)(nil)
	_ StateCodec = (*MultiScaleEngine)(nil)
	_ StateCodec = (*AdaptiveEngine)(nil)
)
