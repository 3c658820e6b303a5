package runtime

// UseChooser makes c the source of the machine's scheduler draws, in
// place of its splitmix64 stream: a test can record a run's choices and
// replay them, or name a schedule outright.
func (m *Machine) UseChooser(c interface{ Intn(n int) int }) { m.rng = c }
