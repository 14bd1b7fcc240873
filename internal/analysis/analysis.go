// Package analysis is a zero-dependency static-analysis framework for
// the funcx repository. It loads packages with `go list` + the stdlib
// go/{parser,types,importer} toolchain (no x/tools), runs a suite of
// project-specific analyzers over the type-checked syntax, and applies
// `//funcx:ignore <analyzer> <reason>` suppression directives.
//
// The analyzers encode invariants this codebase otherwise maintains by
// hand: exhaustive protocol/opcode switches, the monotonic-clock trace
// discipline, the metric-family registry, context flow through request
// paths, select-guarded channel sends on hot paths, and debug logging
// that costs nothing while debug is off. See the README "Static
// analysis" section.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects a single package and
// reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in output and in
	// `//funcx:ignore <name> ...` directives.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package's import path ("funcx/internal/trace").
	Path string

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, possibly suppressed by an ignore
// directive.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
	// Suppressed is set by the runner when an ignore directive for
	// this analyzer covers the finding's line; SuppressReason carries
	// the directive's justification.
	Suppressed     bool
	SuppressReason string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
	if d.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", d.SuppressReason)
	}
	return s
}

// A Directive is one parsed `//funcx:<name> <args>` comment.
type Directive struct {
	Pos  token.Pos
	Line int
	// Name is the directive kind: "ignore", "exhaustive",
	// "metric-registry".
	Name string
	Args string
}

const directivePrefix = "//funcx:"

// Directives extracts every funcx directive comment from file, in
// source order.
func Directives(fset *token.FileSet, file *ast.File) []Directive {
	var out []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, directivePrefix)
			name, args, _ := strings.Cut(rest, " ")
			out = append(out, Directive{
				Pos:  c.Pos(),
				Line: fset.Position(c.Pos()).Line,
				Name: name,
				Args: strings.TrimSpace(args),
			})
		}
	}
	return out
}

// DirectiveAt returns the directive of the given kind attached to the
// source line at pos: on the same line, or on the line immediately
// above. This is how directives bind to statements (switches, calls)
// without AST comment attachment.
func DirectiveAt(dirs []Directive, fset *token.FileSet, pos token.Pos, name string) (Directive, bool) {
	line := fset.Position(pos).Line
	for _, d := range dirs {
		if d.Name == name && (d.Line == line || d.Line == line-1) {
			return d, true
		}
	}
	return Directive{}, false
}

// ignoreDirective is one parsed `//funcx:ignore <analyzer> <reason>`.
type ignoreDirective struct {
	Directive
	analyzer string
	reason   string
	file     string
	used     bool
}

// Options configures a run of the suite.
type Options struct {
	// CheckIgnores reports ignore directives that suppress nothing
	// (dead suppressions) and directives missing a reason. Enabled by
	// the funcx-vet driver; the golden-test harness runs single
	// analyzers and disables it except in its dedicated test.
	CheckIgnores bool
}

// Run executes every analyzer over every package, applies ignore
// directives, and returns all diagnostics sorted by position.
// Suppressed findings are returned with Suppressed set rather than
// dropped, so the driver can show the triage surface.
func Run(pkgs []*Package, analyzers []*Analyzer, opts Options) []Diagnostic {
	var diags []Diagnostic
	var ignores []*ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range Directives(pkg.Fset, f) {
				if d.Name != "ignore" {
					continue
				}
				name, reason, _ := strings.Cut(d.Args, " ")
				ignores = append(ignores, &ignoreDirective{
					Directive: d,
					analyzer:  name,
					reason:    strings.TrimSpace(reason),
					file:      pkg.Fset.Position(d.Pos).Filename,
				})
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Path:     pkg.Path,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}

	// Apply suppressions: a directive covers findings of its named
	// analyzer on its own line or the line directly below it, in the
	// same file.
	for i := range diags {
		d := &diags[i]
		for _, ig := range ignores {
			if ig.analyzer != d.Analyzer || ig.file != d.Position.Filename {
				continue
			}
			if ig.Line == d.Position.Line || ig.Line == d.Position.Line-1 {
				ig.used = true
				d.Suppressed = true
				d.SuppressReason = ig.reason
			}
		}
	}

	if opts.CheckIgnores {
		known := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			known[a.Name] = true
		}
		for _, ig := range ignores {
			switch {
			case ig.analyzer == "" || ig.reason == "":
				diags = append(diags, Diagnostic{
					Analyzer: "ignoredirective",
					Position: position(pkgs, ig.Pos, ig.file, ig.Line),
					Message:  "malformed ignore directive: want //funcx:ignore <analyzer> <reason>",
				})
			case !known[ig.analyzer]:
				diags = append(diags, Diagnostic{
					Analyzer: "ignoredirective",
					Position: position(pkgs, ig.Pos, ig.file, ig.Line),
					Message:  fmt.Sprintf("ignore directive names unknown analyzer %q", ig.analyzer),
				})
			case !ig.used:
				diags = append(diags, Diagnostic{
					Analyzer: "ignoredirective",
					Position: position(pkgs, ig.Pos, ig.file, ig.Line),
					Message:  fmt.Sprintf("ignore directive for %q suppresses nothing; delete it", ig.analyzer),
				})
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// position resolves a token.Pos against whichever package's FileSet
// owns it (directives carry their file/line already).
func position(pkgs []*Package, pos token.Pos, file string, line int) token.Position {
	for _, pkg := range pkgs {
		if p := pkg.Fset.Position(pos); p.Filename == file {
			return p
		}
	}
	return token.Position{Filename: file, Line: line}
}

// pkgPathIn reports whether path is one of the listed import paths.
func pkgPathIn(path string, set ...string) bool {
	for _, s := range set {
		if path == s {
			return true
		}
	}
	return false
}

// constOf resolves a case-clause expression to the named constant it
// uses, if any.
func constOf(info *types.Info, expr ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	if obj, ok := info.Uses[id]; ok {
		if c, ok := obj.(*types.Const); ok {
			return c
		}
	}
	return nil
}
