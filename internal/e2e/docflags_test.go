package e2e

import (
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
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
