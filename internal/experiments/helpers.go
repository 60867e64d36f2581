package experiments

import (
	"repro/internal/kernel"
	"repro/internal/label"
)

// registryMode is the mode every paper-registry experiment builds its
// kernels in. It stays ClosedForm outside TestEngineEquivalence, which
// runs the registry once per mode.
var registryMode kernel.Mode

// newKernel builds an experiment's kernel in registryMode.
func newKernel(cfg kernel.Config) *kernel.Kernel {
	cfg.Mode = registryMode
	return kernel.New(cfg)
}

// labelPublic is a tiny indirection so experiment files read cleanly.
func labelPublic() label.Label { return label.Public() }

// labelPublicPriv is the unprivileged caller.
func labelPublicPriv() label.Priv { return label.Priv{} }
