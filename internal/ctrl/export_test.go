package ctrl

import "time"

// MemoLen returns the number of memoized program generations.
func MemoLen(c *Controller) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.progs)
}

// SetSwapTimeout shortens how long Swap waits for a drain before it
// reports the swap wedged. Call it before the controller serves.
func SetSwapTimeout(c *Controller, d time.Duration) { c.swapTimeout = d }
