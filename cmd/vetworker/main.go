// Command vetworker is one remote vet-cluster worker node: it claims
// submissions from a coordinator (`tmarket -serve -listen -cluster`)
// over one claim stream per lane (an HTTP connection upgraded once), runs
// the full local vet pipeline on each, heartbeats its leases during
// emulation, and reports verdicts back for first-wins recording. The node
// cold-starts its model from the coordinator's advertised generation,
// pulled over the same stream, and hot-swaps whenever a claim advertises
// a newer one — no model files need to be distributed out of band. The
// node and its coordinator must be the same build.
//
//	vetworker -coordinator http://localhost:8080 -node node-a
//
// The process exits 0 when the coordinator reports its queue drained or
// on SIGINT/SIGTERM (in-flight claims are nacked back for prompt
// re-issue; verdicts already computed are acked first).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"apichecker/internal/cluster"
	"apichecker/internal/core"
)

func main() {
	var (
		coord = flag.String("coordinator", "", "coordinator base URL (e.g. http://localhost:8080); required")
		node  = flag.String("node", "", "stable node name, at most 255 bytes (its affinity identity; live while a lane's stream is open); required")
		lanes = flag.Int("lanes", 0, "concurrent claim lanes (0 = 4)")
		poll  = flag.Duration("poll", 10*time.Second, "claim long-poll budget per request")
		vcap  = flag.Int("vcache", 0, "node-local verdict-cache capacity (0 = default capacity, negative = disabled)")
		quiet = flag.Bool("quiet", false, "suppress the per-vet progress lines")
	)
	flag.Parse()
	if *coord == "" || *node == "" {
		fmt.Fprintln(os.Stderr, "vetworker: -coordinator and -node are required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := cluster.WorkerConfig{
		Coordinator:  *coord,
		Node:         *node,
		Lanes:        *lanes,
		PollWait:     *poll,
		VerdictCache: *vcap,
	}
	if !*quiet {
		cfg.OnVet = func(seq int64, v *core.Verdict, err error) {
			switch {
			case err != nil:
				fmt.Printf("vet seq=%-5d err=%v\n", seq, err)
			case v != nil:
				fmt.Printf("vet seq=%-5d pkg=%-24s malicious=%-5v score=%.3f gen=%d\n",
					seq, v.Package, v.Malicious, v.Score, v.Generation)
			}
		}
	}

	w, err := cluster.StartWorker(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetworker:", err)
		os.Exit(1)
	}
	fmt.Printf("vetworker %s claiming from %s\n", *node, *coord)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("received %s; stopping\n", s)
		w.Stop()
	case <-w.Done():
		fmt.Println("coordinator drained; exiting")
	}

	st := w.Stats()
	fmt.Printf("node %s: %d claims, %d verdicts, %d nacks, %d panics, %d lease-lost, %d model pulls, %d swaps\n",
		*node, st.Claims, st.Verdicts, st.Nacks, st.Panics, st.LeaseLost, st.ModelPulls, st.ModelSwaps)
}
