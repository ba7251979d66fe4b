package elastic

import (
	"fmt"
	"io"
	"os/exec"
)

// Launcher starts one new staging server. Launch returns once the daemon
// is spawned; joining the group is observed separately by the controller
// through the membership (waitView), which is what catches a daemon that
// crashes before joining.
type Launcher interface {
	Launch() error
}

// LauncherFunc adapts a function to the Launcher interface — what tests
// and in-process clusters use.
type LauncherFunc func() error

// Launch implements Launcher.
func (f LauncherFunc) Launch() error { return f() }

// ProcessLauncher execs a colza-server binary — the production scale-up
// path: the new daemon bootstraps itself into the group through the
// shared connection file passed in Args.
type ProcessLauncher struct {
	Binary string
	Args   []string
	Stdout io.Writer
	Stderr io.Writer
}

// Launch starts the process without waiting for it; the exit status is
// reaped in the background to avoid zombies.
func (l *ProcessLauncher) Launch() error {
	if l.Binary == "" {
		return fmt.Errorf("elastic: ProcessLauncher has no binary")
	}
	cmd := exec.Command(l.Binary, l.Args...)
	cmd.Stdout = l.Stdout
	cmd.Stderr = l.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("elastic: launching %s: %w", l.Binary, err)
	}
	go cmd.Wait()
	return nil
}
