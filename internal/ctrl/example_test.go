package ctrl_test

import (
	"fmt"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/netkat"
)

// Example hot-swaps the stateful firewall for a bandwidth cap on a live
// controller. The firewall's established event knowledge — H1 has
// contacted H4, so the return path is open — survives the swap through
// the event mapping: the cap starts counting from the firewall's
// history, and H4's reply is delivered immediately after the swap
// instead of being dropped by a freshly-reset program.
func Example() {
	fw := apps.Firewall()
	c := ctrl.New(fw.Topo, ctrl.Options{Workers: 2})
	defer c.Close()
	if err := c.Load("firewall", fw.Prog); err != nil {
		panic(err)
	}

	// Outgoing traffic opens the return path under the firewall.
	c.Engine().InjectAsyncBatch([]dataplane.Injection{{Host: "H1", Fields: netkat.Packet{"dst": apps.H(4), "src": apps.H(1)}}})
	c.Engine().Quiesce()

	capp := apps.BandwidthCap(3)
	rep, err := c.Swap(capp.Name, capp.Prog)
	if err != nil {
		panic(err)
	}
	fmt.Printf("swap %s -> %s: %d mapped, %d carried, %d staged rules\n",
		rep.From, rep.To, rep.MappedEvents, rep.CarriedEvents, rep.StagedRules)

	// The reply flows under the new program without re-establishing state.
	c.Engine().InjectAsyncBatch([]dataplane.Injection{{Host: "H4", Fields: netkat.Packet{"dst": apps.H(1), "src": apps.H(4)}}})
	c.Engine().Quiesce()
	received := 0
	for _, d := range c.Engine().CopyDeliveries(0) {
		if d.Host == "H1" {
			received++
		}
	}
	fmt.Printf("H1 received %d after the swap\n", received)

	st := c.Status()
	fmt.Printf("running %s at epoch %d\n", st.Program, st.Epoch)
	// Output:
	// swap firewall -> bandwidth-cap-3: 1 mapped, 1 carried, 24 staged rules
	// H1 received 1 after the swap
	// running bandwidth-cap-3 at epoch 1
}
