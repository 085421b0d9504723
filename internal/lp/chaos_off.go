//go:build !lpchaos

package lp

// Fault injection is compiled out of normal builds: chaosCfg is an empty
// type whose nil-receiver methods are no-ops the compiler inlines away, so
// the hook sites in factorize/pivotEta/initDevex/initDSE cost nothing.
// Build with -tags lpchaos (see chaos_on.go) to arm the hooks.
type chaosCfg struct{}

func (*chaosCfg) failFactor(Engine) bool { return false }

func (*chaosCfg) perturbEta([]float64) {}

func (*chaosCfg) corruptDevex([]float64) {}
