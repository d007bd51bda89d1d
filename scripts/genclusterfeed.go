//go:build ignore

// genclusterfeed prints a deterministic stcpsd JSONL observation feed
// for the cluster smoke test: nine sensors SR0..SR8, one per grid cell
// (64-unit partition cells, so a 3-node cluster owns a share each),
// visited round-robin with v cycling 0..9 and ticks strictly
// increasing. Sensors are cell-local — each detector's input stream
// lives wholly inside one partition, the contract the cluster's
// differential guarantee covers (cross-partition composition is
// documented as out of scope).
// Usage: go run scripts/genclusterfeed.go [-n 180] [-start 0].
//
// With -tcp the same records stream to a stcpsd wire listener over the
// binary protocol instead; the client's Close waits for every ack, so
// the exit doubles as an ingest barrier.
// Usage: go run scripts/genclusterfeed.go -tcp 127.0.0.1:9090 -n 180.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
	"github.com/stcps/stcps/wireclient"
)

func obs(i int) event.Observation {
	cell := i % 9
	return event.Observation{
		Mote: "MT", Sensor: fmt.Sprintf("SR%d", cell), Seq: uint64(i/9 + 1),
		Time:  timemodel.At(timemodel.Tick(i + 1)),
		Loc:   spatial.AtPoint(float64(cell)*64+5, 5),
		Attrs: event.Attrs{"v": float64(i % 10)},
	}
}

func main() {
	n := flag.Int("n", 180, "records to generate")
	start := flag.Int("start", 0, "index of the first record (seq/tick continuity across phases)")
	tcp := flag.String("tcp", "", "stream to this stcpsd wire listener instead of printing JSONL")
	flag.Parse()
	if *tcp != "" {
		if err := sendWire(*tcp, *start, *n); err != nil {
			fmt.Fprintln(os.Stderr, "genclusterfeed:", err)
			os.Exit(1)
		}
		return
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i := *start; i < *start+*n; i++ {
		line, err := json.Marshal(obs(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "genclusterfeed:", err)
			os.Exit(1)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
}

func sendWire(addr string, start, n int) error {
	c, err := wireclient.Dial(addr, wireclient.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		return err
	}
	for i := start; i < start+n; i++ {
		o := obs(i)
		if err := c.SendObservation(&o); err != nil {
			return fmt.Errorf("send %d: %w", i, err)
		}
	}
	if err := c.Close(); err != nil {
		return err
	}
	st := c.Stats()
	fmt.Fprintf(os.Stderr, "genclusterfeed: wire %s: sent=%d acked=%d\n", addr, st.Sent, st.Acked)
	return nil
}
