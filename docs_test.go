package tsvd

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestSmokeDocs keeps the operator docs suite honest against the source.
// For every markdown file at the repository root and under docs/ it checks
// that:
//
//   - every intra-repository link resolves: the target file exists, and a
//     #fragment names a heading of the target by its GitHub-style anchor;
//   - every `Config.X` the prose mentions is a field of config.Config, so
//     renamed or removed knobs cannot survive in prose;
//   - every `tsvd.X` is an exported package-level symbol of this package;
//   - no prose names `Access.Class` / `Access.Method`, the string fields
//     the site-id redesign removed from core.Access.
//
// The symbol checks cover the docs that describe the current code: README.md,
// DESIGN.md, EXPERIMENTS.md and docs/. The change log, the planning notes and
// the paper reference material name removed or foreign symbols on purpose.
//
// It also audits that every exported identifier of this package,
// internal/config, internal/sampler, internal/chaos and internal/triage
// carries a doc comment, including methods on exported types, exported
// struct fields and exported interface methods.
func TestSmokeDocs(t *testing.T) {
	docs, err := docFiles(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no markdown files found")
	}
	configFields, err := structFields(filepath.Join("internal", "config"), "Config")
	if err != nil {
		t.Fatal(err)
	}
	publicSymbols, err := packageSymbols(".")
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
			if msg := checkLink(doc, m[1]); msg != "" {
				t.Errorf("%s: %s", doc, msg)
			}
		}
		if !describesCode(doc) {
			continue
		}
		for _, f := range referenced(text, configRef) {
			if !configFields[f] {
				t.Errorf("%s: Config.%s is not a field of config.Config", doc, f)
			}
		}
		for _, s := range referenced(text, tsvdRef) {
			if !publicSymbols[s] {
				t.Errorf("%s: tsvd.%s is not an exported symbol of the tsvd package", doc, s)
			}
		}
		for _, f := range referenced(text, removedAccessRef) {
			t.Errorf("%s: Access.%s was removed by the site-id redesign; API metadata lives in the site registry (sites.Registry, resolved onto report sides)", doc, f)
		}
	}

	for _, dir := range []string{".", "internal/config", "internal/sampler", "internal/chaos", "internal/triage"} {
		n, missing, err := auditGodoc(dir)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Errorf("%s: no exported identifiers audited", dir)
		}
		for _, m := range missing {
			t.Errorf("%s: %s has no doc comment", dir, m)
		}
	}
}

// docFiles returns every markdown file at root and under root/docs, sorted.
func docFiles(root string) ([]string, error) {
	var files []string
	for _, glob := range []string{"*.md", filepath.Join("docs", "*.md")} {
		matches, err := filepath.Glob(filepath.Join(root, glob))
		if err != nil {
			return nil, err
		}
		files = append(files, matches...)
	}
	sort.Strings(files)
	return files, nil
}

// codeDocs are the root-level docs that describe the current code; together
// with docs/ they are the files the stale-symbol checks cover.
var codeDocs = map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true}

// describesCode reports whether doc is subject to the stale-symbol checks.
func describesCode(doc string) bool {
	dir, base := filepath.Split(filepath.Clean(doc))
	return codeDocs[base] && dir == "" || filepath.Base(filepath.Clean(dir)) == "docs"
}

var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkLink verifies one inline link target of markdown file from and
// returns a finding, or "" when the link resolves. External schemes are
// skipped: only intra-repository consistency is checked.
func checkLink(from, target string) string {
	if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
		return ""
	}
	path, frag, _ := strings.Cut(target, "#")
	file := from
	if path != "" {
		file = filepath.Join(filepath.Dir(from), path)
		info, err := os.Stat(file)
		if err != nil {
			return fmt.Sprintf("link target %q does not exist", target)
		}
		if info.IsDir() {
			return ""
		}
	}
	if frag == "" || !strings.HasSuffix(file, ".md") {
		return "" // anchors into non-markdown files are browser-defined
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return fmt.Sprintf("link target %q unreadable: %v", target, err)
	}
	if !headingAnchors(string(data))[frag] {
		return fmt.Sprintf("link %q: no heading in %s has anchor #%s", target, file, frag)
	}
	return ""
}

// headingAnchors returns the GitHub-style anchor slugs of every heading in
// a markdown document, including -1/-2 suffixes for duplicates.
func headingAnchors(text string) map[string]bool {
	anchors := map[string]bool{}
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		title := strings.TrimLeft(line, "#")
		if title != "" && !strings.HasPrefix(title, " ") {
			continue // shell comments etc. need "# " to be a heading
		}
		slug := slugify(strings.TrimSpace(title))
		if n := counts[slug]; n > 0 {
			anchors[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			anchors[slug] = true
		}
		counts[slug]++
	}
	return anchors
}

// slugify mirrors GitHub's heading-to-anchor rule: lowercase, spaces become
// hyphens, and everything but letters, digits, hyphens and underscores is
// dropped.
func slugify(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') || r > 127:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// The symbol references carry a left boundary, so HTTPConfig.Metrics does
// not read as Config.Metrics.
var (
	configRef        = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])Config\.([A-Z][A-Za-z0-9_]*)`)
	tsvdRef          = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])tsvd\.([A-Z][A-Za-z0-9_]*)`)
	removedAccessRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])Access\.(Class|Method)\b`)
)

func referenced(text string, re *regexp.Regexp) []string {
	var out []string
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// parseDir parses every non-test Go file of the package in dir.
func parseDir(dir string) ([]*ast.File, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return files, nil
}

// structFields returns the exported field names of the named struct type.
func structFields(dir, typeName string) (map[string]bool, error) {
	files, err := parseDir(dir)
	if err != nil {
		return nil, err
	}
	fields := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typeName {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.IsExported() {
							fields[name.Name] = true
						}
					}
				}
			}
			return false
		})
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("struct %s not found in %s", typeName, dir)
	}
	return fields, nil
}

// packageSymbols returns every exported package-level name (types, funcs,
// consts, vars) of the package in dir.
func packageSymbols(dir string) (map[string]bool, error) {
	files, err := parseDir(dir)
	if err != nil {
		return nil, err
	}
	syms := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					syms[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							syms[s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								syms[name.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return syms, nil
}

// auditGodoc returns the number of exported identifiers inspected in the
// package at dir and those with no doc comment. A group doc on a
// const/var/type block covers its specs; a trailing line comment counts for
// single-line specs and struct fields, matching godoc rendering.
func auditGodoc(dir string) (int, []string, error) {
	files, err := parseDir(dir)
	if err != nil {
		return 0, nil, err
	}
	n := 0
	var missing []string
	note := func(documented bool, name string) {
		n++
		if !documented {
			missing = append(missing, name)
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && receiverExported(d) {
					note(d.Doc != nil, funcName(d))
				}
			case *ast.GenDecl:
				groupDoc := d.Doc != nil
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						note(groupDoc || s.Doc != nil || s.Comment != nil, "type "+s.Name.Name)
						auditTypeMembers(s, note)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								note(groupDoc || s.Doc != nil || s.Comment != nil, name.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(missing)
	return n, missing, nil
}

// auditTypeMembers audits the exported struct fields and interface methods
// of an exported type.
func auditTypeMembers(s *ast.TypeSpec, note func(bool, string)) {
	var fields *ast.FieldList
	kind := ""
	switch t := s.Type.(type) {
	case *ast.StructType:
		fields, kind = t.Fields, "field"
	case *ast.InterfaceType:
		fields, kind = t.Methods, "method"
	default:
		return
	}
	for _, field := range fields.List {
		documented := field.Doc != nil || field.Comment != nil
		for _, name := range field.Names {
			if name.IsExported() {
				note(documented, fmt.Sprintf("%s %s.%s", kind, s.Name.Name, name.Name))
			}
		}
	}
}

// receiverName returns the base type name of a method's receiver, seeing
// through pointers and generic instantiations, or "" for a function.
func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return "?"
		}
	}
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are not part of the package's godoc surface).
func receiverExported(d *ast.FuncDecl) bool {
	name := receiverName(d)
	return name == "" || name == "?" || ast.IsExported(name)
}

// funcName renders a function or method name for findings.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return "func " + d.Name.Name
	}
	return fmt.Sprintf("method %s.%s", receiverName(d), d.Name.Name)
}
