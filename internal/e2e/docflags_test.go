package e2e

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// flagDocs are the documents that tell an operator how to run the
// binaries: the README and the build-and-run recipe.
var flagDocs = []string{"README.md", ".claude/skills/verify/SKILL.md"}

// docFlagExceptions are the dash tokens those documents name that are not
// colza flags: the Go toolchain's race detector and the recipe's
// `-flag=value` placeholder.
var docFlagExceptions = map[string]bool{"race": true, "flag": true}

var (
	inlineCode = regexp.MustCompile("`([^`\n]+)`")
	dashName   = regexp.MustCompile(`(?:^|[\s/])-([a-z][a-z0-9-]*)`)
)

// binaryFlags returns the flag names `bin -h` prints.
func binaryFlags(t *testing.T, bin string) map[string]bool {
	t.Helper()
	out, _ := exec.Command(bin, "-h").CombinedOutput() // the usage text counts, not the exit status
	flags := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "  -") {
			flags[strings.TrimPrefix(strings.Fields(line)[0], "-")] = true
		}
	}
	if len(flags) == 0 {
		t.Fatalf("%s -h printed no flags:\n%s", bin, out)
	}
	return flags
}

// unknownDocFlags lists the dash names in doc that no binary has: every
// one in inline code that starts with a dash, checked against both
// binaries, and every argument on a colza-server or colza-ctl command line
// of a fenced block, checked against that binary. flags maps a binary's
// name to its flag names.
func unknownDocFlags(doc string, flags map[string]map[string]bool) []string {
	var bad []string
	check := func(name string, known ...map[string]bool) {
		if docFlagExceptions[name] {
			return
		}
		for _, k := range known {
			if k[name] {
				return
			}
		}
		bad = append(bad, "-"+name)
	}
	for _, m := range inlineCode.FindAllStringSubmatch(doc, -1) {
		if strings.HasPrefix(m[1], "-") {
			for _, d := range dashName.FindAllStringSubmatch(m[1], -1) {
				check(d[1], flags["colza-server"], flags["colza-ctl"])
			}
		}
	}
	for _, line := range fencedLines(doc) {
		args := strings.Fields(line)
		for i, a := range args {
			known, ok := flags[path.Base(a)]
			if !ok {
				continue
			}
			for _, arg := range args[i+1:] {
				if strings.ContainsAny(arg[:1], "&|;>#") {
					break // the shell takes over
				}
				if strings.HasPrefix(arg, "-") {
					check(strings.SplitN(arg[1:], "=", 2)[0], known)
				}
			}
			break
		}
	}
	return bad
}

// fencedLines returns the lines of doc's fenced code blocks, with
// backslash continuations joined into one line.
func fencedLines(doc string) []string {
	var lines []string
	fenced, cont := false, ""
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case !fenced:
		case strings.HasSuffix(line, `\`):
			cont += strings.TrimSuffix(line, `\`) + " "
		default:
			lines = append(lines, cont+line)
			cont = ""
		}
	}
	return lines
}

// TestDocumentedFlagsExist holds README.md and the build-and-run recipe
// to the flags the binaries print: a flag deleted from the code fails here
// until the documents stop naming it.
func TestDocumentedFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries")
	}
	serverBin, ctlBin := buildBinaries(t)
	flags := map[string]map[string]bool{
		"colza-server": binaryFlags(t, serverBin),
		"colza-ctl":    binaryFlags(t, ctlBin),
	}

	// A deleted flag planted in both places the check reads.
	planted := "Tune it with `-elastic-target/-elastic-cooldown`.\n\n```sh\n" +
		"/tmp/colza-server -connfile /tmp/colza.addr -elastic \\\n  -elastic-cooldown 5s > srv.log 2>&1 &\n```\n"
	if got, want := unknownDocFlags(planted, flags), []string{"-elastic-cooldown", "-elastic-cooldown"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("planted deleted flag: found %v, want %v", got, want)
	}

	root := repoRoot(t)
	for _, name := range flagDocs {
		doc, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		if bad := unknownDocFlags(string(doc), flags); len(bad) > 0 {
			t.Errorf("%s names flags neither colza-server -h nor colza-ctl -h prints: %v", name, bad)
		}
	}
}

// identDocs are the documents whose backticked Go identifiers must name a
// declaration of this module.
var identDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// qualifiedIdent matches pkg.Name and pkg.Name.Member, where Name is
// exported: a dotted metric name such as catalyst.render_p50_s has a
// lowercase second part and is not an identifier.
var qualifiedIdent = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)

// moduleDecls maps each package name of the module's non-test files (the
// benchmark/ module and main packages aside) to its top-level names, and
// "pkg.Type" to the type's methods, struct fields and interface methods.
func moduleDecls(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	add := func(key, name string) {
		if decls[key] == nil {
			decls[key] = map[string]bool{}
		}
		decls[key][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "benchmark") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if pkg == "main" {
			return nil
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(pkg, decl.Name.Name)
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					add(pkg+"."+id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(pkg, spec.Name.Name)
						var members *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields
						case *ast.InterfaceType:
							members = typ.Methods
						default:
							continue
						}
						for _, m := range members.List {
							for _, n := range m.Names {
								add(pkg+"."+spec.Name.Name, n.Name)
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(pkg, n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// unknownDocIdents lists the backticked pkg.Name and pkg.Type.Member
// references in doc, outside fenced blocks, that no declaration in decls
// answers. Only names qualified by one of the module's packages count.
func unknownDocIdents(doc string, decls map[string]map[string]bool) []string {
	var prose []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
		} else if !fenced {
			prose = append(prose, line)
		}
	}
	var bad []string
	for _, code := range inlineCode.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		for _, m := range qualifiedIdent.FindAllStringSubmatch(code[1], -1) {
			pkg, name, member := m[1], m[2], m[3]
			if decls[pkg] == nil {
				continue // not one of the module's packages
			}
			switch {
			case !decls[pkg][name]:
				bad = append(bad, pkg+"."+name)
			case member != "" && !decls[pkg+"."+name][member]:
				bad = append(bad, pkg+"."+name+"."+member)
			}
		}
	}
	return bad
}

// TestDocumentedIdentifiersExist holds the documents to the code they
// describe: a Go identifier a document names in inline code must still be
// declared, so a deleted type, function, method or field fails here until
// the documents stop naming it.
func TestDocumentedIdentifiersExist(t *testing.T) {
	root := repoRoot(t)
	decls := moduleDecls(t, root)

	// Deleted names planted next to live ones and a metric name.
	planted := "Composite through `icet.FromController(ctrl)` and the controller's\n" +
		"`vtk.Controller.Kind`; `vtk.Controller`, `core.DefaultPlacement`,\n" +
		"`render.Image.At` and `catalyst.render_p50_s` stay.\n\n```go\nicet.RegisterCommFactory(\"mpi\", f) // fenced: not checked\n```\n"
	if got, want := unknownDocIdents(planted, decls), []string{"icet.FromController", "vtk.Controller.Kind"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("planted stale names: found %v, want %v", got, want)
	}

	for _, name := range identDocs {
		doc, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		if bad := unknownDocIdents(string(doc), decls); len(bad) > 0 {
			t.Errorf("%s names identifiers the module does not declare: %v", name, bad)
		}
	}
}

// repoPath matches a path into the repository's examples/, cmd/ or
// internal/ tree, with or without a leading ./: a path inside a longer one
// (colza/internal/core, /tmp/cmd/x) does not count.
var repoPath = regexp.MustCompile(`(?:^|[^\w./-])((?:\./)?(?:examples|cmd|internal)/[\w.-]+(?:/[\w.-]+)*)`)

// missingDocPaths lists the repository paths doc names, in inline code or
// on a fenced go run / go build line, that do not exist under root. A
// trailing /... (a go package pattern) is dropped before the check.
func missingDocPaths(doc, root string) []string {
	var spans []string
	for _, m := range inlineCode.FindAllStringSubmatch(doc, -1) {
		spans = append(spans, m[1])
	}
	for _, line := range fencedLines(doc) {
		if strings.Contains(line, "go run ") || strings.Contains(line, "go build ") {
			spans = append(spans, line)
		}
	}
	var bad []string
	for _, span := range spans {
		for _, m := range repoPath.FindAllStringSubmatch(span, -1) {
			p := strings.TrimSuffix(strings.TrimPrefix(m[1], "./"), "/...")
			if _, err := os.Stat(filepath.Join(root, p)); err != nil {
				bad = append(bad, p)
			}
		}
	}
	return bad
}

// goRunExample matches a fenced `go run ./examples/<x>` line.
var goRunExample = regexp.MustCompile(`^go run \./examples/([\w-]+)`)

// exampleListDrift compares doc's fenced go run ./examples/<x> lines with
// the directories under root/examples: it names every listed example that
// is not a directory and every directory that is not listed.
func exampleListDrift(t *testing.T, doc, root string) []string {
	t.Helper()
	listed := map[string]bool{}
	for _, line := range fencedLines(doc) {
		if m := goRunExample.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			listed[m[1]] = true
		}
	}
	entries, err := os.ReadDir(filepath.Join(root, "examples"))
	if err != nil {
		t.Fatal(err)
	}
	var drift []string
	for _, e := range entries {
		if e.IsDir() && !listed[e.Name()] {
			drift = append(drift, "./examples/"+e.Name()+" is not listed")
		}
		delete(listed, e.Name())
	}
	for name := range listed {
		drift = append(drift, "./examples/"+name+" is not a directory")
	}
	sort.Strings(drift)
	return drift
}

// TestDocumentedPathsExist holds the documents to the repository's layout:
// every examples/, cmd/ or internal/ path they name in inline code or on a
// fenced go run / go build line must exist, and README's go run
// ./examples/... lines must list exactly the examples there are.
func TestDocumentedPathsExist(t *testing.T) {
	// A fixture tree with an example the planted document leaves out
	// (ghost), and the planted document naming a deleted one (stats) in
	// both places the check reads.
	fixture := t.TempDir()
	for _, dir := range []string{"examples/quickstart", "examples/ghost", "internal/core"} {
		if err := os.MkdirAll(filepath.Join(fixture, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	planted := "See `internal/core/` and `./examples/stats`; `go test ./examples/...` runs them.\n\n" +
		"```sh\ngo run ./examples/quickstart   # kept\ngo run ./examples/stats        # deleted\n```\n"
	if got, want := missingDocPaths(planted, fixture), []string{"examples/stats", "examples/stats"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("planted deleted path: found %v, want %v", got, want)
	}
	want := []string{"./examples/ghost is not listed", "./examples/stats is not a directory"}
	if got := exampleListDrift(t, planted, fixture); !reflect.DeepEqual(got, want) {
		t.Fatalf("planted example list: found %v, want %v", got, want)
	}

	root := repoRoot(t)
	for _, name := range identDocs {
		doc, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		if bad := missingDocPaths(string(doc), root); len(bad) > 0 {
			t.Errorf("%s names paths that do not exist: %v", name, bad)
		}
		if name == "README.md" {
			if drift := exampleListDrift(t, string(doc), root); len(drift) > 0 {
				t.Errorf("README.md's go run ./examples/... lines do not match examples/: %v", drift)
			}
		}
	}
}
