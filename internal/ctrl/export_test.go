package ctrl

// MemoLen returns the number of memoized program generations.
func MemoLen(c *Controller) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.progs)
}
