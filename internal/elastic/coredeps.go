package elastic

import (
	"colza/internal/core"
	"colza/internal/obs"
)

// CoreDeps wires a controller to a live server's admin RPC plane:
// scale-down through leave, and post-join provisioning that replicates the
// hosting server's pipeline definitions onto the newcomer. Sensing needs
// no RPC: the hosting server hands the controller its own executes
// (core.Provider.SetElastic).
func CoreDeps(self string, members func() []string, admin *core.AdminClient, launcher Launcher, reg *obs.Registry) Deps {
	return Deps{
		Self:     self,
		Members:  members,
		Leave:    admin.RequestLeave,
		Launcher: launcher,
		Provision: ProvisionFromDefs(admin, func() string {
			if self != "" {
				return self
			}
			if m := members(); len(m) > 0 {
				return m[0]
			}
			return ""
		}),
		Registry: reg,
	}
}

// ProvisionFromDefs returns a Provision hook copying the pipeline
// definitions of source() onto a freshly joined member, so the newcomer
// can vote yes on the next activate. Creating a pipeline is idempotent, so
// a daemon that raced its own provisioning is not an error.
func ProvisionFromDefs(admin *core.AdminClient, source func() string) func(addr string) error {
	return func(addr string) error {
		src := source()
		if src == "" || src == addr {
			return nil
		}
		defs, err := admin.PipelineDefs(src)
		if err != nil {
			return err
		}
		for _, d := range defs {
			if err := admin.CreatePipeline(addr, d.Name, d.Type, d.Config); err != nil {
				return err
			}
		}
		return nil
	}
}
