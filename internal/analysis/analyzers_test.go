package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// Each analyzer must fire on its seeded violations (the _bad package)
// and stay silent on the corrected form (the _ok package).

func TestExhaustiveGolden(t *testing.T) {
	runGolden(t, AnalyzerExhaustive, "exhaustive_bad", "funcx/test/exhaustive", Options{})
	runGolden(t, AnalyzerExhaustive, "exhaustive_ok", "funcx/test/exhaustive", Options{})
}

func TestClockDisciplineTraceGolden(t *testing.T) {
	runGolden(t, AnalyzerClockDiscipline, "clock_trace_bad", "funcx/internal/trace", Options{})
	runGolden(t, AnalyzerClockDiscipline, "clock_trace_ok", "funcx/internal/trace", Options{})
}

func TestClockDisciplineDeltaGolden(t *testing.T) {
	runGolden(t, AnalyzerClockDiscipline, "clock_delta_bad", "funcx/internal/manager", Options{})
	runGolden(t, AnalyzerClockDiscipline, "clock_delta_ok", "funcx/internal/manager", Options{})
}

func TestMetricNamesGolden(t *testing.T) {
	runGolden(t, AnalyzerMetricNames, "metricnames_bad", "funcx/internal/service", Options{})
	runGolden(t, AnalyzerMetricNames, "metricnames_ok", "funcx/internal/service", Options{})
}

func TestCtxFlowGolden(t *testing.T) {
	runGolden(t, AnalyzerCtxFlow, "ctxflow_bad", "funcx/internal/forwarder", Options{})
	runGolden(t, AnalyzerCtxFlow, "ctxflow_ok", "funcx/internal/forwarder", Options{})
}

func TestBoundedChanGolden(t *testing.T) {
	runGolden(t, AnalyzerBoundedChan, "boundedchan_bad", "funcx/internal/endpoint", Options{})
	runGolden(t, AnalyzerBoundedChan, "boundedchan_ok", "funcx/internal/endpoint", Options{})
}

func TestDebugLogGolden(t *testing.T) {
	runGolden(t, AnalyzerDebugLog, "debuglog_bad", "funcx/internal/endpoint", Options{})
	runGolden(t, AnalyzerDebugLog, "debuglog_ok", "funcx/internal/endpoint", Options{})
}

// Out-of-scope packages produce nothing: every path-scoped analyzer
// ignores a package outside its configured import paths even when the
// code would otherwise violate it.
func TestScopedAnalyzersIgnoreForeignPackages(t *testing.T) {
	for _, dir := range []string{"ctxflow_bad", "boundedchan_bad", "clock_trace_bad", "debuglog_bad"} {
		pkg := loadGolden(t, dir, "funcx/test/outofscope")
		for _, a := range []*Analyzer{AnalyzerCtxFlow, AnalyzerBoundedChan, AnalyzerClockDiscipline, AnalyzerDebugLog} {
			if diags := Run([]*Package{pkg}, []*Analyzer{a}, Options{}); len(diags) != 0 {
				t.Errorf("%s on out-of-scope %s: unexpected diagnostics %v", a.Name, dir, diags)
			}
		}
	}
}

// An ignore directive suppresses exactly its named analyzer: the
// mixed line in the ignoredir package violates both ctxflow and
// boundedchan, but only the ctxflow finding is suppressed.
func TestIgnoreSuppressesExactlyNamedAnalyzer(t *testing.T) {
	pkg := loadGolden(t, "ignoredir", "funcx/internal/service")
	diags := Run([]*Package{pkg}, []*Analyzer{AnalyzerCtxFlow, AnalyzerBoundedChan}, Options{})
	var ctxflowSuppressed, boundedchanLive int
	for _, d := range diags {
		switch {
		case d.Analyzer == "ctxflow" && d.Suppressed:
			ctxflowSuppressed++
			if !strings.Contains(d.SuppressReason, "seeded justification") {
				t.Errorf("suppression lost its reason: %q", d.SuppressReason)
			}
		case d.Analyzer == "boundedchan" && !d.Suppressed:
			boundedchanLive++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if ctxflowSuppressed != 1 || boundedchanLive != 1 {
		t.Fatalf("want 1 suppressed ctxflow + 1 live boundedchan, got %d/%d", ctxflowSuppressed, boundedchanLive)
	}
}

// With ignore checking on, a directive that suppresses nothing is
// itself a finding.
func TestUnusedIgnoreDirectiveReported(t *testing.T) {
	pkg := loadGolden(t, "ignoredir", "funcx/internal/service")
	diags := Run([]*Package{pkg}, []*Analyzer{AnalyzerCtxFlow, AnalyzerBoundedChan}, Options{CheckIgnores: true})
	found := false
	for _, d := range diags {
		if d.Analyzer == "ignoredirective" && strings.Contains(d.Message, "suppresses nothing") {
			found = true
		}
	}
	if !found {
		t.Fatal("stale ignore directive was not reported")
	}
}

// A dangling exhaustive directive (not attached to a switch) is a
// finding. Built inline: no imports, so no export data is needed.
func TestExhaustiveDanglingDirective(t *testing.T) {
	const src = `package p

//funcx:exhaustive p.Kind
var x = 1
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := newInfo()
	tpkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Path: "p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
	diags := Run([]*Package{pkg}, []*Analyzer{AnalyzerExhaustive}, Options{})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "not attached to a switch") {
		t.Fatalf("want dangling-directive finding, got %v", diags)
	}
}

// The full suite over the real repository must be clean: zero
// unsuppressed findings. This is the same bar CI's lint job enforces
// via funcx-vet.
func TestSuiteCleanOnRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	var dirty []string
	for _, d := range Run(pkgs, All(), Options{CheckIgnores: true}) {
		if !d.Suppressed {
			dirty = append(dirty, d.String())
		}
	}
	if len(dirty) > 0 {
		t.Fatalf("unsuppressed findings:\n%s", strings.Join(dirty, "\n"))
	}
}
