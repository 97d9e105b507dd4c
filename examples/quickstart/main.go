// Quickstart: build a topology, bootstrap segment reservations, request an
// end-to-end reservation between two hosts, and send protected traffic.
package main

import (
	"fmt"
	"log"

	"colibri"
)

func main() {
	// The paper's Fig. 1 topology: source AS 1-11 (two uplinks), cores 1-1
	// and 2-1, destination AS 2-11.
	topo := colibri.TwoISDTopology()
	net, err := colibri.NewNetwork(topo, colibri.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Operators bootstrap segment reservations (up/core/down) from traffic
	// forecasts; AutoSetupSegRs reserves a uniform mesh.
	if err := net.AutoSetupSegRs(1 * colibri.Gbps); err != nil {
		log.Fatal(err)
	}

	// Attach end hosts.
	src, err := net.AddHost(colibri.MustIA(1, 11), 0x0a000001)
	if err != nil {
		log.Fatal(err)
	}
	dst, err := net.AddHost(colibri.MustIA(2, 11), 0x14000001)
	if err != nil {
		log.Fatal(err)
	}

	// One call sets up the end-to-end reservation: the local Colibri
	// service picks joinable segment reservations, chains the request
	// through the on-path ASes, and installs the hop authenticators at the
	// gateway.
	sess, err := src.RequestEER(dst, 8*colibri.Mbps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reserved %d kbps over a %d-AS path\n",
		sess.BandwidthKbps(), sess.PathLen())

	// Traffic now flows with a worst-case bandwidth guarantee: the gateway
	// stamps per-hop MACs, each border router validates statelessly.
	for i := 0; i < 5; i++ {
		net.Clock.Advance(1e6)
		if err := sess.Send([]byte(fmt.Sprintf("hello %d", i))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("destination received %d protected packets\n", dst.Received)
	for _, p := range dst.Inbox {
		fmt.Printf("  %q\n", p)
	}
	if dst.Received != 5 {
		log.Fatalf("destination received %d of 5 packets", dst.Received)
	}
	fmt.Println("✓ 5 packets delivered over an end-to-end reservation")
}
