package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"repro/internal/rng"
)

// SpecVersion is the version of the canonical spec encoding, stamped into
// every normalized spec as the envelope field "v". The canonical encoding
// is what the cache key, the derived seed and the persistent store are
// defined over, and the store outlives any one binary — so a change to the
// encoding that is not purely additive must bump SpecVersion. Decoding
// rejects specs carrying a different version (ErrSpecVersion), which is
// what lets the persistent store preserve frames written under another
// codec opaquely instead of serving stale entries under drifted keys.
//
// Version history:
//
//	1: the first explicitly versioned encoding. Specs encoded before
//	   versioning carry no "v" field and decode with V == 0; persistence
//	   layers treat them as a foreign version.
//	2: same encoding, new realizations. The median kind's count engine
//	   runs median-like rules through an exact O(k²) transition round,
//	   auto resolves to it for small supports whether or not the run is
//	   observed, and the "twobin" engine name is gone. Fixed-seed results
//	   of median specs that now land on another engine or round mode
//	   changed, so v1 results are not served under v2 keys.
//	3: same encoding, new realizations. The gossip kind draws each
//	   request's target directly instead of through a materialized n·n
//	   private numbering (the same distribution at O(n) memory), so
//	   fixed-seed gossip results changed and v2 results are not served
//	   under v3 keys.
const SpecVersion = 3

// ErrSpecVersion marks a spec whose "v" field names a canonical-encoding
// version this binary does not speak. Persistence layers match it with
// errors.Is to preserve such records opaquely rather than dropping them.
var ErrSpecVersion = errors.New("engine: unsupported spec version")

// Spec is the serializable description of one simulation run: the envelope
// fields every family shares plus the family's typed payload, selected by
// Kind and resolved through the registry.
//
// On the wire the payload is flattened into the envelope object —
//
//	{"kind":"median","seed":5,"init":{...},"rule":{...}}
//	{"kind":"gossip","init":{...},"cap_factor":2,"selector":"drop-value:1"}
//
// — and decoding is strict: an unknown field (for the spec's kind) is an
// error, never silently dropped. Decode, Normalize, Validate, Population,
// the canonical hash and Execute all dispatch through the registry; no code
// in this package knows any family by name.
type Spec struct {
	// Kind selects the simulation family ("" = the registry's default
	// kind, median).
	Kind string `json:"-"`
	// Seed makes the run reproducible. 0 means "derive from the spec
	// hash" (see DeriveSeed), so seedless specs are still deterministic.
	Seed uint64 `json:"-"`
	// MaxRounds caps the run (0 = engine default). Families with another
	// natural unit document the mapping (robust counts parallel rounds:
	// the step cap is MaxRounds·n).
	MaxRounds int `json:"-"`
	// Payload is the family's typed spec body (nil behaves like the
	// family's zero payload).
	Payload Payload `json:"-"`
	// V is the canonical-encoding version ("v" on the wire). 0 means the
	// spec has not been normalized yet (or was decoded from a pre-version
	// encoding); Normalize stamps SpecVersion. Decoding rejects any other
	// value with ErrSpecVersion.
	V int `json:"-"`
}

// envelope names the Spec fields that live beside the flattened payload.
var envelopeFields = []string{"kind", "seed", "max_rounds", "v"}

// MarshalJSON flattens the payload's fields into the envelope object. Map
// encoding sorts keys lexicographically, so the output — and therefore the
// canonical encoding Hash is defined over — is deterministic.
func (s Spec) MarshalJSON() ([]byte, error) {
	fields := map[string]json.RawMessage{}
	if s.Payload != nil {
		buf, err := json.Marshal(s.Payload)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(buf, &fields); err != nil {
			return nil, fmt.Errorf("engine: %s payload is not a JSON object: %w", s.kind(), err)
		}
		for _, key := range envelopeFields {
			if _, clash := fields[key]; clash {
				return nil, fmt.Errorf("engine: %s payload redefines the envelope field %q", s.kind(), key)
			}
		}
	}
	if s.Kind != "" {
		fields["kind"], _ = json.Marshal(s.Kind)
	}
	if s.Seed != 0 {
		fields["seed"], _ = json.Marshal(s.Seed)
	}
	if s.MaxRounds != 0 {
		fields["max_rounds"], _ = json.Marshal(s.MaxRounds)
	}
	if s.V != 0 {
		fields["v"], _ = json.Marshal(s.V)
	}
	return json.Marshal(fields)
}

// UnmarshalJSON splits the envelope fields off and strictly decodes the
// rest into the kind's payload type, resolved through the registry. An
// unknown kind, or a field the kind's payload does not define, is an error
// — a misspelled or foreign-family field is never silently dropped.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return err
	}
	var env struct {
		Kind      string `json:"kind"`
		Seed      uint64 `json:"seed"`
		MaxRounds int    `json:"max_rounds"`
		V         int    `json:"v"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return err
	}
	// An absent "v" (V == 0, the pre-version encoding) is accepted for
	// compatibility with existing clients; any explicit version other than
	// ours is a spec this binary must not reinterpret under its own codec.
	if env.V != 0 && env.V != SpecVersion {
		return fmt.Errorf("%w: spec has v%d, this binary speaks v%d", ErrSpecVersion, env.V, SpecVersion)
	}
	e, err := Lookup(env.Kind)
	if err != nil {
		return err
	}
	for _, key := range envelopeFields {
		delete(fields, key)
	}
	rest, err := json.Marshal(fields)
	if err != nil {
		return err
	}
	p := e.NewPayload()
	if err := strictDecode(rest, p); err != nil {
		return fmt.Errorf("engine: bad %s spec: %w", kindOrDefault(env.Kind), err)
	}
	*s = Spec{Kind: env.Kind, Seed: env.Seed, MaxRounds: env.MaxRounds, Payload: p, V: env.V}
	return nil
}

func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// kind resolves the family discriminant ("" means the registered default).
func (s Spec) kind() string { return kindOrDefault(s.Kind) }

func kindOrDefault(kind string) string {
	if kind == "" {
		return DefaultKind()
	}
	return kind
}

// payloadFor resolves s.Payload as e's payload type. The Kind/Payload
// pair is a caller contract: a payload whose concrete type is not the
// kind's own is rejected outright — never converted through the codec,
// where a foreign family whose JSON fields happen to be a subset of the
// kind's would silently run the wrong simulation. A nil payload resolves
// to the family's zero payload.
func (s Spec) payloadFor(e Engine) (Payload, error) {
	p := e.NewPayload()
	if s.Payload == nil {
		return p, nil
	}
	if reflect.TypeOf(s.Payload) != reflect.TypeOf(p) {
		return nil, fmt.Errorf("engine: payload %T does not belong to spec kind %s", s.Payload, s.kind())
	}
	return s.Payload, nil
}

// Clone returns a deep copy: the payload is round-tripped through its own
// JSON encoding, so patching one batch cell can never leak into the
// template or a sibling cell. A payload the kind's codec cannot decode
// strictly (a foreign family's payload) is left in place, shared — it can
// never pass Validate, which every Clone consumer runs before using the
// copy, so it must not be silently truncated into a valid-looking spec of
// the wrong family here.
func (s Spec) Clone() Spec {
	e, err := Lookup(s.kind())
	if err != nil || s.Payload == nil {
		return s
	}
	buf, err := json.Marshal(s.Payload)
	if err != nil {
		return s
	}
	p := e.NewPayload()
	if strictDecode(buf, p) != nil {
		return s
	}
	s.Payload = p
	return s
}

// Normalize returns a copy with the kind made explicit, the spec-codec
// version stamped (V = SpecVersion, the "v" of the canonical encoding) and
// the payload rewritten to its canonical form (defaulted fields explicit,
// empty parameter maps dropped), so equivalent specs share one canonical
// encoding. Specs of unknown kinds pass through otherwise untouched —
// Validate, not Normalize, rejects them.
func (s Spec) Normalize() Spec {
	kind := s.kind()
	e, err := Lookup(kind)
	if err != nil {
		s.Kind = kind
		s.V = SpecVersion
		return s
	}
	p, err := s.payloadFor(e)
	if err != nil {
		// A foreign payload cannot be canonicalized; leave it for
		// Validate to reject.
		s.Kind = kind
		s.V = SpecVersion
		return s
	}
	if p == s.Payload {
		// Never normalize a caller-held payload in place.
		clone := s.Clone()
		p = clone.Payload
	}
	p.Normalize()
	return Spec{Kind: kind, Seed: s.Seed, MaxRounds: s.MaxRounds, Payload: p, V: SpecVersion}
}

// Validate checks that the kind is registered, the payload belongs to it,
// every registry reference resolves and every parameter is in range,
// without materializing the O(n) initial state — it is safe to call on
// every API request.
func (s Spec) Validate() error {
	if s.MaxRounds < 0 {
		return fmt.Errorf("engine: negative max_rounds")
	}
	if s.V != 0 && s.V != SpecVersion {
		return fmt.Errorf("%w: spec has v%d, this binary speaks v%d", ErrSpecVersion, s.V, SpecVersion)
	}
	e, err := Lookup(s.kind())
	if err != nil {
		return err
	}
	p, err := s.payloadFor(e)
	if err != nil {
		return err
	}
	return p.Validate()
}

// Population reports the population the spec would materialize, for
// admission control. 0 means unknown.
func (s Spec) Population() int64 {
	e, err := Lookup(s.kind())
	if err != nil {
		return 0
	}
	p, err := s.payloadFor(e)
	if err != nil {
		return 0
	}
	return p.Population()
}

// MaterializedSize reports the number of per-process states the run will
// actually allocate: the payload's MaterializedSize when it implements
// Materializer (and knows the answer), else Population. This is the
// quantity admission control should bound — a count-level run over a huge
// population only ever holds its O(support) distribution.
func (s Spec) MaterializedSize() int64 {
	e, err := Lookup(s.kind())
	if err != nil {
		return 0
	}
	p, err := s.payloadFor(e)
	if err != nil {
		return 0
	}
	if m, ok := p.(Materializer); ok {
		if sz := m.MaterializedSize(); sz > 0 {
			return sz
		}
	}
	return p.Population()
}

// Canonical returns the canonical JSON encoding of the normalized spec —
// the byte string the hash, cache and seed derivation are defined over.
func (s Spec) Canonical() ([]byte, error) {
	return json.Marshal(s.Normalize())
}

// Hash returns the canonical spec hash as a hex string.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	return HashBytes(c), nil
}

// HashBytes digests a canonical encoding into the spec hash. It lets bulk
// callers that hold an already-normalized spec (the batch expander) hash
// json.Marshal(spec) directly instead of paying Hash's re-normalization
// round-trip per cell; Hash(s) == HashBytes(s.Canonical()).
func HashBytes(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return fmt.Sprintf("%x", sum[:])
}

// DeriveSeed maps a canonical spec hash to a run seed via the splitmix64
// finalizer, so seedless specs get a deterministic, well-mixed seed.
func DeriveSeed(hash string) uint64 {
	sum := sha256.Sum256([]byte(hash))
	return rng.Mix64(binary.LittleEndian.Uint64(sum[:8]))
}

// EffectiveSeed returns the seed a run of this spec will actually use.
func (s Spec) EffectiveSeed() (uint64, error) {
	if s.Seed != 0 {
		return s.Seed, nil
	}
	h, err := s.Hash()
	if err != nil {
		return 0, err
	}
	return DeriveSeed(h), nil
}

// ApplyAxis patches the named sweep parameter: the shared envelope axes
// ("seed", "max_rounds") directly, everything else through the payload's
// AxisApplier — the name must be one of the kind's Descriptor().Axes.
func (s *Spec) ApplyAxis(param string, v float64) error {
	switch param {
	case "seed":
		sv, err := intAxis(param, v)
		if err != nil {
			return err
		}
		s.SetSeed(uint64(sv))
		return nil
	case "max_rounds":
		mr, err := intAxis(param, v)
		if err != nil {
			return err
		}
		s.MaxRounds = int(mr)
		return nil
	}
	e, err := Lookup(s.kind())
	if err != nil {
		return err
	}
	if !axisAllowed(s.kind(), param) {
		return fmt.Errorf("engine: kind %s has no batch axis %q", s.kind(), param)
	}
	p, err := s.payloadFor(e)
	if err != nil {
		return err
	}
	a, ok := p.(AxisApplier)
	if !ok {
		return fmt.Errorf("engine: kind %s payload does not apply axes", s.kind())
	}
	if err := a.ApplyAxis(param, v); err != nil {
		return err
	}
	s.Payload = p
	return nil
}

// SetSeed sets the run seed and keeps seed-consuming init kinds in step
// with it (SeedFollower), so batch repetitions draw distinct initial
// states.
func (s *Spec) SetSeed(seed uint64) {
	s.Seed = seed
	if f, ok := s.Payload.(SeedFollower); ok {
		f.FollowSeed(seed)
	}
}

// AxisOK reports whether the kind supports the named batch axis (shared
// envelope axes included).
func (s Spec) AxisOK(param string) bool {
	if param == "seed" || param == "max_rounds" {
		return true
	}
	return axisAllowed(s.kind(), param)
}

// intAxis rejects non-integral axis values for integer parameters — shared
// by the envelope axes here and the family AxisAppliers.
func intAxis(param string, v float64) (int64, error) {
	if v != float64(int64(v)) {
		return 0, fmt.Errorf("engine: batch axis %q needs integer values, got %v", param, v)
	}
	return int64(v), nil
}

// IntAxis rejects non-integral axis values for integer parameters; exported
// for the family packages' AxisApplier implementations.
func IntAxis(param string, v float64) (int, error) {
	sv, err := intAxis(param, v)
	return int(sv), err
}
