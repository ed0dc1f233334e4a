package comet

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/comet-explain/comet/internal/wire"
)

// ModelFactory builds a warmed, ready-to-query cost model for an effective
// spec (the caller's spec with the registered defaults filled in). It
// returns the model and its recommended ε-ball radius (0 means the
// standard 0.5-cycle ball). "Warmed" means the returned model answers
// Predict immediately: neural models train inside the factory, remote
// models complete their handshake.
type ModelFactory func(spec ModelSpec) (CostModel, float64, error)

// ModelDef describes one registered model family: how specs naming it are
// canonicalized and how instances are built.
type ModelDef struct {
	// Name is the canonical model name (lowercase, [a-z0-9._-]+).
	Name string
	// Aliases are alternative names folded onto Name at resolve time.
	Aliases []string
	// Description is a one-line summary for discovery (-list-models,
	// GET /v1/models).
	Description string
	// DefaultTarget is used when a spec omits "@target" (zoo models:
	// "hsw"). Empty with RequireTarget unset means targets are not used.
	DefaultTarget string
	// ArchTarget marks the target as a microarchitecture name; resolve
	// canonicalizes it ("skylake" → "skl") and rejects unknown arches.
	ArchTarget bool
	// RequireTarget rejects specs without an explicit target (the remote
	// model needs its URL).
	RequireTarget bool
	// Defaults enumerates every parameter the model accepts and its
	// default value. Parameters outside this set are a resolve error;
	// a nil map means the model takes no parameters.
	Defaults map[string]string
	// Restricted marks a model whose resolution exercises ambient
	// authority — dialing the network, reading the filesystem. Servers
	// refuse to resolve restricted specs from untrusted client input
	// unless explicitly enabled (comet-serve -allow-restricted-specs);
	// operator-initiated resolution (CLI, preload) is never restricted.
	Restricted bool
	// RestrictedParams lists parameters whose explicit presence makes a
	// spec restricted even when the model itself is not (ithemal's
	// load=<path> reads a file).
	RestrictedParams []string
	// Epsilon is the advertised default ε for discovery. The factory's
	// return value is authoritative at resolve time.
	Epsilon float64
	// Factory builds instances. Required.
	Factory ModelFactory
}

// ModelParam is one parameter name/default pair from a model definition.
type ModelParam struct {
	Key, Value string
}

// ParamDefaults returns the model's accepted parameters and their
// defaults, sorted by key — the single source for -list-models and
// GET /v1/models listings.
func (d ModelDef) ParamDefaults() []ModelParam {
	out := make([]ModelParam, 0, len(d.Defaults))
	for _, k := range d.paramKeys() {
		out = append(out, ModelParam{Key: k, Value: d.Defaults[k]})
	}
	return out
}

// RestrictedFor reports whether resolving this spec exercises ambient
// authority (the model is Restricted, or the spec explicitly sets a
// restricted parameter).
func (d ModelDef) RestrictedFor(spec ModelSpec) bool {
	if d.Restricted {
		return true
	}
	for _, p := range d.RestrictedParams {
		if _, ok := spec.Params[p]; ok {
			return true
		}
	}
	return false
}

// DefaultSpec returns the canonical spec string that resolves this model
// with every default ("uica@hsw"); models requiring an explicit target
// render it as a placeholder ("remote@<url>").
func (d ModelDef) DefaultSpec() string {
	target := d.DefaultTarget
	if d.RequireTarget && target == "" {
		target = "<url>"
	}
	return ModelSpec{Name: d.Name, Target: target}.String()
}

// paramKeys returns the model's accepted parameter names, sorted.
func (d ModelDef) paramKeys() []string {
	keys := make([]string, 0, len(d.Defaults))
	for k := range d.Defaults {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (d ModelDef) clone() ModelDef {
	c := d
	c.Aliases = append([]string(nil), d.Aliases...)
	c.RestrictedParams = append([]string(nil), d.RestrictedParams...)
	if d.Defaults != nil {
		c.Defaults = make(map[string]string, len(d.Defaults))
		for k, v := range d.Defaults {
			c.Defaults[k] = v
		}
	}
	return c
}

// registry is the process-wide model registry. The zoo and the remote
// model self-register from init; applications add their own models with
// RegisterModel.
var registry = struct {
	mu      sync.RWMutex
	defs    map[string]*ModelDef
	aliases map[string]string
}{
	defs:    make(map[string]*ModelDef),
	aliases: make(map[string]string),
}

// RegisterModel installs a model family in the process-wide registry,
// making it addressable by spec string from every layer — the comet CLI,
// comet-bench, comet-serve, and library callers of ResolveModel. It
// panics on an invalid definition or a name/alias collision (registration
// is init-time configuration, like http.Handle).
func RegisterModel(def ModelDef) {
	def.Name = strings.ToLower(def.Name)
	if err := validateSpecName(def.Name); err != nil {
		panic(fmt.Sprintf("comet: RegisterModel: %v", err))
	}
	if def.Factory == nil {
		panic(fmt.Sprintf("comet: RegisterModel(%q): nil Factory", def.Name))
	}
	stored := def.clone()
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, ok := registry.defs[def.Name]; ok {
		panic(fmt.Sprintf("comet: RegisterModel(%q): already registered", def.Name))
	}
	if canon, ok := registry.aliases[def.Name]; ok {
		panic(fmt.Sprintf("comet: RegisterModel(%q): name is an alias of %q", def.Name, canon))
	}
	for _, alias := range def.Aliases {
		alias = strings.ToLower(alias)
		if _, ok := registry.defs[alias]; ok {
			panic(fmt.Sprintf("comet: RegisterModel(%q): alias %q collides with a registered model", def.Name, alias))
		}
		if canon, ok := registry.aliases[alias]; ok {
			panic(fmt.Sprintf("comet: RegisterModel(%q): alias %q already points at %q", def.Name, alias, canon))
		}
	}
	registry.defs[def.Name] = &stored
	for _, alias := range def.Aliases {
		registry.aliases[strings.ToLower(alias)] = def.Name
	}
}

// LookupModel finds a registered model by name or alias (any case). The
// returned definition is a copy.
func LookupModel(name string) (ModelDef, bool) {
	name = strings.ToLower(name)
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	if canon, ok := registry.aliases[name]; ok {
		name = canon
	}
	def, ok := registry.defs[name]
	if !ok {
		return ModelDef{}, false
	}
	return def.clone(), true
}

// RegisteredModels returns every registered model definition, sorted by
// name. The slice and its definitions are copies.
func RegisteredModels() []ModelDef {
	registry.mu.RLock()
	defs := make([]ModelDef, 0, len(registry.defs))
	for _, d := range registry.defs {
		defs = append(defs, d.clone())
	}
	registry.mu.RUnlock()
	sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	return defs
}

// registeredNames renders the known model names for error messages.
func registeredNames() string {
	defs := RegisteredModels()
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return strings.Join(names, ", ")
}

// WithDefaultTarget returns the spec with archDefault filled in as its
// target when it has none and the model either targets an arch or is not
// registered (directly injected server models are keyed name@arch). A
// target that parses as an arch is normalized to its wire name
// ("haswell" → "hsw"); URLs and other targets pass through untouched.
// The serving API applies its requests' "arch" field with it.
func (s ModelSpec) WithDefaultTarget(archDefault string) ModelSpec {
	def, known := LookupModel(s.Name)
	if s.Target == "" && (!known || def.ArchTarget) {
		s.Target = archDefault
	}
	if s.Target != "" {
		if arch, err := wire.ParseArch(s.Target); err == nil {
			s.Target = wire.ArchName(arch)
		}
	}
	return s
}

// CanonicalSpec validates a spec against its registered model and returns
// the canonical form: the alias-folded name, the canonicalized target
// (defaulted when omitted; arch names normalized), and only the
// parameters that differ from the registered defaults, so equivalent
// specs canonicalize to the same string. CanonicalSpec(CanonicalSpec(s))
// is the identity, and parsing Spec.String() yields an equal spec.
func CanonicalSpec(spec ModelSpec) (ModelSpec, error) {
	canon, _, err := canonicalizeSpec(spec)
	return canon, err
}

// canonicalizeSpec returns both the canonical spec (defaults elided, for
// identity and display) and the effective spec (defaults materialized,
// for the factory).
func canonicalizeSpec(spec ModelSpec) (canon, eff ModelSpec, err error) {
	def, ok := LookupModel(spec.Name)
	if !ok {
		return ModelSpec{}, ModelSpec{}, fmt.Errorf("comet: unknown model %q (registered: %s)", spec.Name, registeredNames())
	}
	canon = ModelSpec{Name: def.Name, Target: strings.TrimSpace(spec.Target)}
	if canon.Target == "" {
		if def.RequireTarget {
			return ModelSpec{}, ModelSpec{}, fmt.Errorf("comet: model %q requires a target (%s)", def.Name, def.DefaultSpec())
		}
		canon.Target = def.DefaultTarget
	}
	if def.ArchTarget && canon.Target != "" {
		arch, err := wire.ParseArch(canon.Target)
		if err != nil {
			return ModelSpec{}, ModelSpec{}, fmt.Errorf("comet: model %q: %v", def.Name, err)
		}
		canon.Target = wire.ArchName(arch)
	}
	eff = ModelSpec{Name: canon.Name, Target: canon.Target, Params: make(map[string]string, len(def.Defaults))}
	for k, v := range def.Defaults {
		eff.Params[k] = v
	}
	for k, v := range spec.Params {
		dv, known := def.Defaults[k]
		if !known {
			if len(def.Defaults) == 0 {
				return ModelSpec{}, ModelSpec{}, fmt.Errorf("comet: model %q takes no parameters (got %q)", def.Name, k)
			}
			return ModelSpec{}, ModelSpec{}, fmt.Errorf("comet: model %q has no parameter %q (accepted: %s)",
				def.Name, k, strings.Join(def.paramKeys(), ", "))
		}
		eff.Params[k] = v
		if v != dv {
			if canon.Params == nil {
				canon.Params = make(map[string]string)
			}
			canon.Params[k] = v
		}
	}
	return canon, eff, nil
}

// ResolvedModel is the result of resolving a spec through the registry: a
// warmed, ready-to-query model plus the canonical identity it answers to.
type ResolvedModel struct {
	// Model is the warmed cost model.
	Model CostModel
	// Spec is the canonical spec ("ithemal@skl?train=2000"); Spec.String()
	// re-parses to an equal spec and re-resolves to an equivalent model.
	Spec ModelSpec
	// Epsilon is the model's recommended ε-ball radius for explanations.
	Epsilon float64
}

// ResolveModel canonicalizes a spec and builds a warmed model through the
// registered factory. Resolution is where expensive warm-up happens —
// neural models train, remote models handshake — so long-lived processes
// should resolve once and share the instance.
func ResolveModel(spec ModelSpec) (*ResolvedModel, error) {
	canon, eff, err := canonicalizeSpec(spec)
	if err != nil {
		return nil, err
	}
	def, _ := LookupModel(canon.Name)
	model, epsilon, err := def.Factory(eff)
	if err != nil {
		return nil, fmt.Errorf("comet: resolving %s: %w", canon, err)
	}
	if epsilon <= 0 {
		epsilon = def.Epsilon
	}
	if epsilon <= 0 {
		epsilon = 0.5
	}
	return &ResolvedModel{Model: model, Spec: canon, Epsilon: epsilon}, nil
}

// ResolveModelString parses and resolves a spec string in one call.
func ResolveModelString(s string) (*ResolvedModel, error) {
	spec, err := ParseModelSpec(s)
	if err != nil {
		return nil, err
	}
	return ResolveModel(spec)
}
