package rpc

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

func TestHeaderRoundTrip(t *testing.T) {
	b := marshalHeader(0xDEADBEEF12345678, 42, 100, 200000, 300)
	xid, proc, metaLen, bulkLen, readLen := unmarshalHeader(b)
	if xid != 0xDEADBEEF12345678 || proc != 42 || metaLen != 100 || bulkLen != 200000 || readLen != 300 {
		t.Errorf("round trip: %x %d %d %d %d", xid, proc, metaLen, bulkLen, readLen)
	}
	if len(b) != headerBytes {
		t.Errorf("header length = %d", len(b))
	}
}

func testbed(delay sim.Time) (*sim.Env, *cluster.Testbed) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	return env, tb
}

// echoHandler returns the request meta reversed and echoes write bulk as
// read bulk.
func echoHandler(p *sim.Proc, req *Request) *Reply {
	meta := make([]byte, len(req.Meta))
	for i, b := range req.Meta {
		meta[len(meta)-1-i] = b
	}
	rep := &Reply{Meta: meta}
	if req.WriteBulk != nil {
		rep.Bulk = req.WriteBulk
	} else if req.WriteLen > 0 {
		rep.BulkLen = req.WriteLen
	}
	return rep
}

// transports is the table TestTransports runs every scenario against: the
// two transports share one call core, so they must behave alike in
// everything but how the bytes move. serve starts a server on tb.B[0] and
// returns the dial of a client on tb.A[0].
var transports = []struct {
	name  string
	serve serveFunc
}{
	{"tcp-rc", serveTCP(ipoib.Connected)},
	{"tcp-ud", serveTCP(ipoib.Datagram)},
	{"rdma", func(tb *cluster.Testbed, threads int, h Handler) dialFunc {
		srv := ServeRDMA(tb.B[0], threads, h)
		return func(*sim.Proc) (Client, error) { return NewRDMAClient(tb.A[0], srv), nil }
	}},
}

type (
	serveFunc func(tb *cluster.Testbed, threads int, h Handler) dialFunc
	dialFunc  func(p *sim.Proc) (Client, error)
)

func serveTCP(mode ipoib.Mode) serveFunc {
	return func(tb *cluster.Testbed, threads int, h Handler) dialFunc {
		net := ipoib.NewNetwork()
		// A small retransmission budget, so a dead WAN resets the
		// connection within a few RTOs.
		cfg := tcpsim.Config{MaxRetransmits: 2}
		ss := tcpsim.NewStack(net.Attach(tb.B[0].HCA, mode, 0), cfg)
		cs := tcpsim.NewStack(net.Attach(tb.A[0].HCA, mode, 0), cfg)
		ServeTCP(ss, 9999, threads, h)
		return func(p *sim.Proc) (Client, error) {
			cl, err := NewTCPClient(p, cs, ss.Addr(), 9999)
			if err != nil {
				return nil, err
			}
			return cl, nil
		}
	}
}

// fanOut issues n concurrent calls (meta = the call's index, in XID order)
// and returns once all have come back, reporting each through done.
func fanOut(p *sim.Proc, cl Client, n int, done func(i int, reply *Reply, err error)) {
	env := p.Env()
	all := env.NewEvent()
	left := n
	for i := 0; i < n; i++ {
		i := i
		env.Go("call", func(pc *sim.Proc) {
			reply, _, err := cl.Call(pc, &Request{Proc: 1, Meta: []byte{byte(i)}})
			done(i, reply, err)
			if left--; left == 0 {
				all.Trigger(nil)
			}
		})
	}
	p.Wait(all)
}

func TestTransports(t *testing.T) {
	scenarios := []struct {
		name    string
		handler Handler
		body    func(t *testing.T, p *sim.Proc, cl Client, killWAN func())
	}{
		{"echo", echoHandler, func(t *testing.T, p *sim.Proc, cl Client, _ func()) {
			payload := make([]byte, 100000)
			rand.New(rand.NewSource(2)).Read(payload)
			buf := make([]byte, len(payload))
			reply, n, err := cl.Call(p, &Request{Proc: 7, Meta: []byte("abc"), WriteBulk: payload, ReadBuf: buf})
			if err != nil {
				t.Errorf("call: %v", err)
				return
			}
			if string(reply.Meta) != "cba" {
				t.Errorf("meta = %q", reply.Meta)
			}
			if n != len(payload) || !bytes.Equal(buf, payload) {
				t.Errorf("bulk echo mismatch: n=%d", n)
			}
		}},
		// The handler sleeps inversely to the first meta byte, so replies
		// come back in the reverse of request order.
		{"xid-matching", func(p *sim.Proc, req *Request) *Reply {
			p.Sleep(sim.Time(10-req.Meta[0]) * sim.Millisecond)
			return &Reply{Meta: req.Meta}
		}, func(t *testing.T, p *sim.Proc, cl Client, _ func()) {
			var order []int
			fanOut(p, cl, 5, func(i int, reply *Reply, err error) {
				order = append(order, i)
				if err != nil || reply.Meta[0] != byte(i) {
					t.Errorf("call %d got reply %v, err %v (XID mismatch)", i, reply, err)
				}
			})
			if !reflect.DeepEqual(order, []int{4, 3, 2, 1, 0}) {
				t.Errorf("replies arrived in order %v, want reversed", order)
			}
		}},
		// The WAN dies mid-run with calls pending: the transport's retry
		// budget runs out and every call fails with the transport's error,
		// in XID order, as does any call made afterwards.
		{"transport-death", echoHandler, func(t *testing.T, p *sim.Proc, cl Client, killWAN func()) {
			if _, _, err := cl.Call(p, &Request{Proc: 1, Meta: []byte{1}}); err != nil {
				t.Errorf("call over the live WAN: %v", err)
				return
			}
			killWAN()
			var order []int
			var errs []error
			fanOut(p, cl, 4, func(i int, reply *Reply, err error) {
				order = append(order, i)
				errs = append(errs, err)
				if reply != nil {
					t.Errorf("call %d: reply %v alongside error %v", i, reply, err)
				}
			})
			if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
				t.Errorf("pending calls failed in order %v, want XID order", order)
			}
			for i, err := range errs {
				if err == nil || err != errs[0] {
					t.Errorf("call %d: err %v, want the transport's error %v", i, err, errs[0])
				}
			}
			before := p.Env().Now()
			if _, _, err := cl.Call(p, &Request{Proc: 1, Meta: []byte{1}}); err != errs[0] {
				t.Errorf("call on the dead transport: err %v, want %v", err, errs[0])
			}
			if now := p.Env().Now(); now != before {
				t.Errorf("call on the dead transport took %v, want an immediate failure", now-before)
			}
		}},
	}
	for _, tr := range transports {
		for _, sc := range scenarios {
			t.Run(tr.name+"/"+sc.name, func(t *testing.T) {
				env, tb := testbed(sim.Micros(100))
				defer env.Shutdown()
				// The link's raw fault hook: from the kill on, every packet
				// crossing the WAN is lost.
				killWAN := func() { tb.WAN.Link().DropFn = func(sim.Time, ib.Crossing) bool { return true } }
				dial := tr.serve(tb, 8, sc.handler)
				finished := false
				env.Go("client", func(p *sim.Proc) {
					defer env.Stop()
					cl, err := dial(p)
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					sc.body(t, p, cl, killWAN)
					finished = true
				})
				env.Run()
				if !finished && !t.Failed() {
					t.Error("simulation drained with the client still blocked in a call")
				}
			})
		}
	}
}

func TestRDMAFragmentation(t *testing.T) {
	// Bulk moves in 4 KB fragments: count the RDMA writes via the reply
	// wire behaviour — 10000 bytes must take ceil(10000/4096) = 3 writes.
	env, tb := testbed(0)
	defer env.Shutdown()
	srv := ServeRDMA(tb.B[0], 4, func(p *sim.Proc, req *Request) *Reply {
		return &Reply{Meta: []byte{1}, BulkLen: 10000}
	})
	cl := NewRDMAClient(tb.A[0], srv)
	env.Go("client", func(p *sim.Proc) {
		_, n, _ := cl.Call(p, &Request{Proc: 1, Meta: []byte{0}, ReadLen: 10000})
		if n != 10000 {
			t.Errorf("bulk n = %d", n)
		}
		env.Stop()
	})
	env.Run()
	if Fragment != 4096 {
		t.Fatalf("Fragment = %d, want 4096 per the paper", Fragment)
	}
}

func TestRDMAMultipleClients(t *testing.T) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 3, NodesB: 1, Delay: sim.Micros(10)})
	defer env.Shutdown()
	srv := ServeRDMA(tb.B[0], 8, echoHandler)
	done := env.NewEvent()
	left := 3
	oks := make([]bool, 3)
	for i := 0; i < 3; i++ {
		i := i
		cl := NewRDMAClient(tb.A[i], srv)
		env.Go("client", func(p *sim.Proc) {
			reply, _, _ := cl.Call(p, &Request{Proc: 1, Meta: []byte{byte(i), 99}})
			oks[i] = len(reply.Meta) == 2 && reply.Meta[1] == byte(i)
			if left--; left == 0 {
				done.Trigger(nil)
			}
		})
	}
	env.Go("wait", func(p *sim.Proc) { p.Wait(done); env.Stop() })
	env.Run()
	for i, ok := range oks {
		if !ok {
			t.Errorf("client %d reply misrouted", i)
		}
	}
}

func TestThreadPoolBoundsConcurrency(t *testing.T) {
	env, tb := testbed(0)
	defer env.Shutdown()
	inFlight, maxInFlight := 0, 0
	srv := ServeRDMA(tb.B[0], 2, func(p *sim.Proc, req *Request) *Reply {
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		p.Sleep(sim.Millisecond)
		inFlight--
		return &Reply{Meta: []byte{0}}
	})
	cl := NewRDMAClient(tb.A[0], srv)
	done := env.NewEvent()
	left := 6
	for i := 0; i < 6; i++ {
		env.Go("c", func(p *sim.Proc) {
			cl.Call(p, &Request{Proc: 1, Meta: []byte{1}})
			if left--; left == 0 {
				done.Trigger(nil)
			}
		})
	}
	env.Go("wait", func(p *sim.Proc) { p.Wait(done); env.Stop() })
	env.Run()
	if maxInFlight > 2 {
		t.Errorf("max in-flight handlers = %d, pool is 2", maxInFlight)
	}
}
