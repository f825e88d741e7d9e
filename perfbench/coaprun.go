package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/coap"
	"repro/internal/event"
	"repro/internal/gateway"
)

// produceCoAP is one closed-loop CoAP device connection: a gateway.Agent
// that reports the batches of every producers-th home, switching
// Agent.Home between batches. A batch is the agent's default 16 readings,
// so the last Report of a batch is the Flush whose send → ACK round trip
// is the ack latency. The agent keeps one request outstanding.
func (r *runner) produceCoAP(ag *gateway.Agent, w, ph int, last bool, c *clock, tr *tracer) (int, int) {
	in := r.in
	mine, next, end := r.share(w, ph)
	att, fail := 0, 0
	for busy := true; busy; {
		busy = false
		for k, i := range mine {
			hm := &in.homes[i]
			b := next[k]
			if b >= end[k] {
				continue
			}
			busy = true
			next[k]++
			ag.Home = hm.name
			t0 := time.Now()
			sp := tr.beginAt("Agent.Flush", t0, -1, i, b)
			err := sendBatch(ag, hm.batch(b))
			t1 := time.Now()
			tr.endAt(sp, t1)
			att++
			c.submitted[i][b], c.accepted[i][b] = t0, t1
			if err != nil {
				fail++
			}
		}
	}
	if last {
		for _, i := range mine {
			ag.Home = in.homes[i].name
			att++
			sp := tr.begin("Agent.Advance", -1, i)
			err := ag.Advance(in.homes[i].end)
			tr.end(sp)
			if err != nil {
				fail++
			}
		}
	}
	return att, fail
}

// sendBatch reports one batch; a full batch flushes itself on its last
// Report, a short one is flushed explicitly.
func sendBatch(ag *gateway.Agent, batch []event.Event) error {
	for _, e := range batch {
		if err := ag.Report(e); err != nil {
			return err
		}
	}
	if len(batch) < ag.BatchSize {
		return ag.Flush()
	}
	return nil
}

// echoRTTs sends the same payloads, through the same agents, to a stub
// coap.Serve handler that acknowledges without doing any work. What the
// hub's front adds on top of this transport floor is ack − echo.
func (r *runner) echoRTTs() ([]time.Duration, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := coap.Serve(conn, func(*coap.Message) *coap.Message {
		return &coap.Message{Code: coap.CodeChanged}
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	defer srv.Close()
	c := newClock(r.in, 0)
	fails := make([]int, producers)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		ag, err := gateway.NewAgent(srv.Addr().String())
		if err != nil {
			return nil, err
		}
		defer ag.Close()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ph := range r.in.homes[0].phaseEnd {
				_, f := r.produceCoAP(ag, w, ph, false, c, nil)
				fails[w] += f
			}
		}(w)
	}
	wg.Wait()
	for _, f := range fails {
		if f > 0 {
			return nil, fmt.Errorf("echo stub: %d reports failed", f)
		}
	}
	return c.acks(), nil
}
