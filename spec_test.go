package comet

import (
	"strings"
	"sync"
	"testing"
)

// TestModelSpecParseAndString: the spec grammar round-trips — String()
// output re-parses to an equal spec, canonical strings are stable.
func TestModelSpecParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want ModelSpec
		str  string // canonical String() rendering
	}{
		{"uica", ModelSpec{Name: "uica"}, "uica"},
		{"UICA", ModelSpec{Name: "uica"}, "uica"},
		{"c@skl", ModelSpec{Name: "c", Target: "skl"}, "c@skl"},
		{
			"ithemal@skylake?hidden=64&train=2000",
			ModelSpec{Name: "ithemal", Target: "skylake", Params: map[string]string{"hidden": "64", "train": "2000"}},
			"ithemal@skylake?hidden=64&train=2000",
		},
		{
			// Params render sorted by key.
			"ithemal?train=9&hidden=8",
			ModelSpec{Name: "ithemal", Params: map[string]string{"hidden": "8", "train": "9"}},
			"ithemal?hidden=8&train=9",
		},
		{
			"remote@http://localhost:8372?model=uica&arch=hsw",
			ModelSpec{Name: "remote", Target: "http://localhost:8372", Params: map[string]string{"model": "uica", "arch": "hsw"}},
			"remote@http://localhost:8372?arch=hsw&model=uica",
		},
		{
			// Escaped values survive the round trip.
			"remote@http://h:1?model=ithemal%40skl%3Ftrain%3D5",
			ModelSpec{Name: "remote", Target: "http://h:1", Params: map[string]string{"model": "ithemal@skl?train=5"}},
			"remote@http://h:1?model=ithemal%40skl%3Ftrain%3D5",
		},
	}
	for _, tc := range cases {
		got, err := ParseModelSpec(tc.in)
		if err != nil {
			t.Errorf("ParseModelSpec(%q): %v", tc.in, err)
			continue
		}
		if !got.Equal(tc.want) {
			t.Errorf("ParseModelSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if got.String() != tc.str {
			t.Errorf("ParseModelSpec(%q).String() = %q, want %q", tc.in, got.String(), tc.str)
		}
		again, err := ParseModelSpec(got.String())
		if err != nil {
			t.Errorf("re-parsing %q: %v", got.String(), err)
		} else if !again.Equal(got) {
			t.Errorf("round trip of %q: %+v != %+v", tc.in, again, got)
		}
	}
}

func TestModelSpecParseErrors(t *testing.T) {
	for _, in := range []string{
		"", "   ", "@hsw", "bad name", "uica?x", "uica?=v", "uica?a=1&a=2", "uica?a=%zz",
	} {
		if _, err := ParseModelSpec(in); err == nil {
			t.Errorf("ParseModelSpec(%q): expected error", in)
		}
	}
}

// FuzzParseModelSpec: every spec that parses renders to a canonical
// string that re-parses to an equal spec and renders to itself.
func FuzzParseModelSpec(f *testing.F) {
	for _, seed := range []string{
		"uica", "UICA", "c@skl", "ithemal@skylake?hidden=64&train=2000",
		"remote@http://h:1?model=ithemal%40skl%3Ftrain%3D5", "a?", "a@?k=",
		" x@ y ?k=%20&&v=+", "uica?a=%zz",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseModelSpec(in)
		if err != nil {
			return
		}
		str := spec.String()
		again, err := ParseModelSpec(str)
		if err != nil {
			t.Fatalf("%q renders to %q, which does not parse: %v", in, str, err)
		}
		if !again.Equal(spec) {
			t.Fatalf("%q: %+v re-parses from %q as %+v", in, spec, str, again)
		}
		if again.String() != str {
			t.Fatalf("%q: String is not a fixed point: %q then %q", in, str, again.String())
		}
	})
}

// TestCanonicalSpec: aliases fold, arch targets normalize, defaults are
// elided, unknown names and parameters are rejected.
func TestCanonicalSpec(t *testing.T) {
	cases := []struct{ in, want string }{
		{"uica", "uica@hsw"},
		{"analytical@skylake", "c@skl"},
		{"neural", "ithemal@hsw"},
		{"ithemal?hidden=64", "ithemal@hsw"},           // equal to the default → elided
		{"ithemal?hidden=48", "ithemal@hsw?hidden=48"}, // differs → kept
		{"hardware@SKL", "hwsim@skl"},
	}
	for _, tc := range cases {
		canon, err := CanonicalSpec(MustParseModelSpec(tc.in))
		if err != nil {
			t.Errorf("CanonicalSpec(%q): %v", tc.in, err)
			continue
		}
		if canon.String() != tc.want {
			t.Errorf("CanonicalSpec(%q) = %q, want %q", tc.in, canon.String(), tc.want)
		}
		// Canonicalization is idempotent.
		again, err := CanonicalSpec(canon)
		if err != nil || !again.Equal(canon) {
			t.Errorf("CanonicalSpec not idempotent for %q: %v %v", tc.in, again, err)
		}
	}
	for _, in := range []string{
		"gpt", "uica@znver4", "uica?hidden=64", "ithemal?banana=1", "ithemal?workers=1", "remote",
	} {
		if _, err := CanonicalSpec(MustParseModelSpec(in)); err == nil {
			t.Errorf("CanonicalSpec(%q): expected error", in)
		}
	}
}

// TestRegistryRoundTrip: every registered spec resolves (with cheap
// parameters where training is involved), and the resolved canonical
// spec re-parses to an equal spec that resolves to an equivalent model.
func TestRegistryRoundTrip(t *testing.T) {
	specs := map[string]string{
		"c":       "c",
		"uica":    "uica",
		"mca":     "mca",
		"hwsim":   "hwsim",
		"ithemal": "ithemal?train=40&epochs=1&hidden=8&embed=8",
		// "remote" needs a live backend; its resolution (and its
		// round-trip equivalence) is covered by TestRemoteEquivalence.
	}
	for _, def := range RegisteredModels() {
		spec, ok := specs[def.Name]
		if !ok {
			if def.Name != "remote" && !testModels[def.Name] {
				t.Errorf("registered model %q has no round-trip coverage; add it to this test", def.Name)
			}
			continue
		}
		rm, err := ResolveModelString(spec)
		if err != nil {
			t.Errorf("ResolveModelString(%q): %v", spec, err)
			continue
		}
		if rm.Model.Name() == "" || rm.Epsilon <= 0 {
			t.Errorf("%q resolved to an implausible model: name %q, ε %v", spec, rm.Model.Name(), rm.Epsilon)
		}
		reparsed, err := ParseModelSpec(rm.Spec.String())
		if err != nil {
			t.Errorf("%q: canonical spec %q does not re-parse: %v", spec, rm.Spec.String(), err)
			continue
		}
		if !reparsed.Equal(rm.Spec) {
			t.Errorf("%q: canonical spec round trip: %+v != %+v", spec, reparsed, rm.Spec)
		}
		// The canonical spec resolves again, to the same identity.
		rm2, err := ResolveModel(reparsed)
		if err != nil {
			t.Errorf("re-resolving %q: %v", rm.Spec.String(), err)
			continue
		}
		if rm2.Model.Name() != rm.Model.Name() || rm2.Model.Arch() != rm.Model.Arch() || rm2.Epsilon != rm.Epsilon {
			t.Errorf("re-resolving %q: got (%s, %v, %v), want (%s, %v, %v)",
				rm.Spec.String(), rm2.Model.Name(), rm2.Model.Arch(), rm2.Epsilon,
				rm.Model.Name(), rm.Model.Arch(), rm.Epsilon)
		}
		if !rm2.Spec.Equal(rm.Spec) {
			t.Errorf("re-resolving %q changed the canonical spec to %q", rm.Spec.String(), rm2.Spec.String())
		}
	}
}

// testModels names the models tests register. The registry is
// process-wide and registration is once only, so TestRegistryRoundTrip
// skips them and TestRegisterCustomModel registers its model once per
// process, whatever -count says.
var (
	testModels       = map[string]bool{"instrcount-test": true}
	registerTestOnce sync.Once
)

// TestRegisterCustomModel: the registry extension point — applications
// register their own factories and resolve them like zoo models.
func TestRegisterCustomModel(t *testing.T) {
	registerTestOnce.Do(registerInstrCountTest)

	rm, err := ResolveModelString("ic-test@skl?scale=3")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rm.Spec.String(), "instrcount-test@skl?scale=3"; got != want {
		t.Errorf("canonical spec %q, want %q", got, want)
	}
	if rm.Epsilon != 0.25 {
		t.Errorf("ε = %v, want the def default 0.25", rm.Epsilon)
	}
	b := MustParseBlock("add rcx, rax\nmov rdx, rcx")
	if got := rm.Model.Predict(b); got != 6 {
		t.Errorf("custom model predicted %v, want 6", got)
	}

	// Duplicate registration panics.
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterModel did not panic")
		}
	}()
	RegisterModel(ModelDef{Name: "instrcount-test", Factory: func(ModelSpec) (CostModel, float64, error) { return nil, 0, nil }})
}

func registerInstrCountTest() {
	RegisterModel(ModelDef{
		Name:          "instrcount-test",
		Aliases:       []string{"ic-test"},
		Description:   "test model: scaled instruction count",
		DefaultTarget: "hsw",
		ArchTarget:    true,
		Defaults:      map[string]string{"scale": "1"},
		Epsilon:       0.25,
		Factory: func(spec ModelSpec) (CostModel, float64, error) {
			scale, err := spec.ParamInt("scale", 1)
			if err != nil {
				return nil, 0, err
			}
			arch := Haswell
			if spec.Target == "skl" {
				arch = Skylake
			}
			return FuncCostModel("instrcount-test", arch, func(b *BasicBlock) float64 {
				return float64(scale * b.Len())
			}), 0, nil
		},
	})
}

// TestListModelsSurface: discovery output covers the zoo and the remote
// model with parseable default specs.
func TestListModelsSurface(t *testing.T) {
	defs := RegisteredModels()
	seen := make(map[string]bool)
	for _, d := range defs {
		seen[d.Name] = true
		if d.Description == "" {
			t.Errorf("model %q has no description", d.Name)
		}
		if d.Name == "remote" {
			if !strings.Contains(d.DefaultSpec(), "<url>") {
				t.Errorf("remote default spec %q should carry the <url> placeholder", d.DefaultSpec())
			}
			continue
		}
		if _, err := ParseModelSpec(d.DefaultSpec()); err != nil {
			t.Errorf("model %q: default spec %q does not parse: %v", d.Name, d.DefaultSpec(), err)
		}
	}
	for _, want := range []string{"c", "uica", "mca", "hwsim", "ithemal", "remote"} {
		if !seen[want] {
			t.Errorf("model %q missing from RegisteredModels", want)
		}
	}
}
