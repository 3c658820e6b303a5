package dataplane

// ForwardsWith reports whether the engine's current program forwards
// through the plan's own schema and compiled tables — the same objects,
// not equal copies — i.e. whether adopting the program lowered nothing.
func (e *Engine) ForwardsWith(p *Plan) bool {
	ps := e.cur()
	if ps.plan != p || ps.schema != p.schema {
		return false
	}
	for ci := range p.flats {
		for sw, ft := range p.flats[ci] {
			if i, ok := e.swIdx[sw]; ok && ps.flat[ci][i] != ft {
				return false
			}
		}
	}
	return true
}

// DistinctFlats counts the plan's distinct compiled tables: what newPlan
// lowered, as opposed to the (configuration, switch) slots that hold them.
func (p *Plan) DistinctFlats() int {
	seen := map[*flatTable]bool{}
	for ci := range p.flats {
		for _, ft := range p.flats[ci] {
			seen[ft] = true
		}
	}
	return len(seen)
}
