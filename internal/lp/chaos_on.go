//go:build lpchaos

package lp

// Seeded fault injection, compiled only under -tags lpchaos. The hooks
// deterministically corrupt the solver's numerical state mid-flight so the
// recovery ladder's rungs are exercised by tests rather than by luck: eta
// updates receive relative noise (silent inverse drift), factorizations are
// forced to fail (engine-aware, so the dense-fallback rung is reachable),
// and Devex and dual steepest-edge weights are corrupted (pricing chases
// the wrong columns or rows). All injection is a pure function of the script and the solve's
// event sequence — same script, same faults.

// devexCorruptWeight is the corrupted reference weight: far below the
// maintained >= 1 invariant, so the victim column's score explodes.
const devexCorruptWeight = 1e-12

// ChaosScript configures deterministic fault injection for one solver.
type ChaosScript struct {
	// Seed drives the injection PRNG; identical seeds replay identical
	// fault sequences.
	Seed uint64
	// FailFactor fails the next N factorizations regardless of engine.
	FailFactor int
	// FailFactorEta fails the next N sparse (eta-engine) factorizations
	// while leaving the dense engine untouched, which drives the solve down
	// the engine-fallback rung.
	FailFactorEta int
	// EtaNoise is the relative perturbation magnitude injected into pivot
	// eta vectors; EtaEvery selects every nth pivot (0 disables).
	EtaNoise float64
	EtaEvery int
	// DevexEvery corrupts one pricing weight at every nth framework reset
	// (0 disables): a Devex reference weight when the primal resets its
	// framework, a dual steepest-edge weight when the dual simplex does.
	DevexEvery int
}

// chaosCfg is the armed hook state hanging off a Solver.
type chaosCfg struct {
	script     ChaosScript
	rng        uint64
	etaCount   int
	devexCount int
}

// SetChaos arms (or, with nil, disarms) fault injection on the solver.
// Only available under -tags lpchaos.
func (s *Solver) SetChaos(script *ChaosScript) {
	if script == nil {
		s.chaos = nil
		return
	}
	s.chaos = &chaosCfg{script: *script, rng: script.Seed*2862933555777941757 + 3037000493}
}

// next steps the injection PRNG and returns a float in [0,1).
func (c *chaosCfg) next() float64 {
	c.rng = c.rng*6364136223846793005 + 1442695040888963407
	return float64(c.rng>>11) / (1 << 53)
}

func (c *chaosCfg) failFactor(e Engine) bool {
	if c == nil {
		return false
	}
	if c.script.FailFactor > 0 {
		c.script.FailFactor--
		return true
	}
	if e == EngineEta && c.script.FailFactorEta > 0 {
		c.script.FailFactorEta--
		return true
	}
	return false
}

func (c *chaosCfg) perturbEta(u []float64) {
	if c == nil || c.script.EtaEvery <= 0 || c.script.EtaNoise == 0 {
		return
	}
	c.etaCount++
	if c.etaCount%c.script.EtaEvery != 0 {
		return
	}
	for i := range u {
		//lint:ignore floatcmp structural zeros must stay exactly zero in the eta
		if u[i] != 0 {
			u[i] *= 1 + c.script.EtaNoise*(c.next()-0.5)
		}
	}
}

func (c *chaosCfg) corruptDevex(w []float64) {
	if c == nil || c.script.DevexEvery <= 0 || len(w) == 0 {
		return
	}
	c.devexCount++
	if c.devexCount%c.script.DevexEvery != 0 {
		return
	}
	w[int(c.next()*float64(len(w)))] = devexCorruptWeight
}
