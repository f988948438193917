package rpc

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

func TestHeaderRoundTrip(t *testing.T) {
	var b [headerBytes]byte
	putHeader(&b, 0xDEADBEEF12345678, 42, 100, 200000, 300)
	xid, proc, metaLen, bulkLen, readLen := unmarshalHeader(b[:])
	if xid != 0xDEADBEEF12345678 || proc != 42 || metaLen != 100 || bulkLen != 200000 || readLen != 300 {
		t.Errorf("round trip: %x %d %d %d %d", xid, proc, metaLen, bulkLen, readLen)
	}
	if len(b) != 24 {
		t.Errorf("header length = %d", len(b))
	}
}

func testbed(delay sim.Time) (*sim.Env, *cluster.Testbed) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	return env, tb
}

// call issues req over cl in a call record of its own and returns a copy of
// the reply, nil when the call failed.
func call(p *sim.Proc, cl Client, req Request) (*Reply, int, error) {
	c := cl.NewCall(req.Proc)
	c.Req = req
	n, err := cl.Do(p, c)
	if err != nil {
		return nil, n, err
	}
	reply := &Reply{Meta: bytes.Clone(c.Reply.Meta), BulkLen: c.Reply.BulkLen}
	c.Release()
	return reply, n, nil
}

// echoHandler returns the request meta reversed and echoes write bulk as
// read bulk.
func echoHandler(p *sim.Proc, req *Request, reply *Reply) {
	for i := range req.Meta {
		reply.Meta = append(reply.Meta, req.Meta[len(req.Meta)-1-i])
	}
	if req.WriteBulk != nil {
		reply.Bulk = req.WriteBulk
	} else if req.WriteLen > 0 {
		reply.BulkLen = req.WriteLen
	}
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
			reply, _, err := call(pc, cl, Request{Proc: 1, Meta: []byte{byte(i)}})
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
			reply, n, err := call(p, cl, Request{Proc: 7, Meta: []byte("abc"), WriteBulk: payload, ReadBuf: buf})
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
		{"xid-matching", func(p *sim.Proc, req *Request, reply *Reply) {
			p.Sleep(sim.Time(10-req.Meta[0]) * sim.Millisecond)
			reply.Meta = append(reply.Meta, req.Meta...)
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
			if _, _, err := call(p, cl, Request{Proc: 1, Meta: []byte{1}}); err != nil {
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
			if _, _, err := call(p, cl, Request{Proc: 1, Meta: []byte{1}}); err != errs[0] {
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
	srv := ServeRDMA(tb.B[0], 4, func(p *sim.Proc, req *Request, reply *Reply) {
		reply.Meta, reply.BulkLen = append(reply.Meta, 1), 10000
	})
	cl := NewRDMAClient(tb.A[0], srv)
	env.Go("client", func(p *sim.Proc) {
		_, n, _ := call(p, cl, Request{Proc: 1, Meta: []byte{0}, ReadLen: 10000})
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
			reply, _, _ := call(p, cl, Request{Proc: 1, Meta: []byte{byte(i), 99}})
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

// TestThreadPoolBoundsConcurrency saturates a two-thread server with six
// calls: at most two handlers run at once, and the calls start in arrival
// order, the backlog being FIFO, as nfsd's queue is.
func TestThreadPoolBoundsConcurrency(t *testing.T) {
	env, tb := testbed(0)
	defer env.Shutdown()
	inFlight, maxInFlight := 0, 0
	var started []byte
	srv := ServeRDMA(tb.B[0], 2, func(p *sim.Proc, req *Request, reply *Reply) {
		started = append(started, req.Meta[0])
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		p.Sleep(sim.Millisecond)
		inFlight--
		reply.Meta = append(reply.Meta, 0)
	})
	cl := NewRDMAClient(tb.A[0], srv)
	done := env.NewEvent()
	left := 6
	for i := 0; i < 6; i++ {
		env.Go("c", func(p *sim.Proc) {
			call(p, cl, Request{Proc: 1, Meta: []byte{byte(i)}})
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
	if want := []byte{0, 1, 2, 3, 4, 5}; !bytes.Equal(started, want) {
		t.Errorf("calls started in order %v, want arrival order %v", started, want)
	}
}

// TestRPCCallLogMatchesParent pins, per transport, when every call of a
// seeded concurrent workload started on the server and when its reply
// reached the caller, and how many events the run took: real and synthetic
// reads and writes of up to 150 KB from six callers against eight threads.
// The hash and the count are those of the server that started a process
// per call, taken before the thread pool and the call records replaced it:
// below its thread count the pool is that server, instant for instant.
func TestRPCCallLogMatchesParent(t *testing.T) {
	want := map[string]struct {
		hash   uint64
		events int64
	}{
		"tcp-rc": {0xb7e7fe6bb20f50e7, 9909},
		"tcp-ud": {0xb3802f564d8dd2e0, 46408},
		"rdma":   {0x446dbad800f0d68f, 16081},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			hash, events := callLog(t, tr.serve)
			if w := want[tr.name]; hash != w.hash || events != w.events {
				t.Errorf("call log hash %#x over %d events, want %#x over %d", hash, events, w.hash, w.events)
			}
		})
	}
}

// callLog runs TestRPCCallLogMatchesParent's workload over one transport and
// returns the FNV-1a hash of its (xid, handler start, reply) log in XID
// order, and the events the run executed.
func callLog(t *testing.T, serve serveFunc) (uint64, int64) {
	const callers, perCaller = 6, 8
	env, tb := testbed(sim.Micros(100))
	defer env.Shutdown()
	payload := make([]byte, 150_000)
	rand.New(rand.NewSource(21)).Read(payload)
	starts := map[uint64]sim.Time{}
	type entry struct {
		xid          uint64
		start, reply sim.Time
	}
	var log []entry
	// The request's metadata is its XID, an op and a size; the reply's is
	// the XID. Ops 0 and 1 read real and synthetic bulk, 2 and 3 write it.
	dial := serve(tb, 8, func(p *sim.Proc, req *Request, reply *Reply) {
		id := binary.LittleEndian.Uint64(req.Meta)
		starts[id] = p.Now()
		p.Sleep(sim.Time(id%5) * 20 * sim.Microsecond)
		reply.Meta = append(reply.Meta, req.Meta[:8]...)
		switch size := int(binary.LittleEndian.Uint32(req.Meta[9:])); req.Meta[8] {
		case 0:
			reply.Bulk = payload[:size]
		case 1:
			reply.BulkLen = size
		}
	})
	rng := rand.New(rand.NewSource(5))
	issued, left := uint64(0), callers
	env.Go("client", func(p *sim.Proc) {
		cl, err := dial(p)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for c := 0; c < callers; c++ {
			env.Go("caller", func(pc *sim.Proc) {
				for k := 0; k < perCaller; k++ {
					pc.Sleep(sim.Time(rng.Intn(50)) * sim.Microsecond)
					op, size := byte(rng.Intn(4)), 1+rng.Intn(len(payload))
					// Calls take consecutive XIDs as they are issued.
					issued++
					xid := issued
					rc := cl.NewCall(3)
					meta := binary.LittleEndian.AppendUint64(rc.Req.Meta, xid)
					rc.Req.Meta = binary.LittleEndian.AppendUint32(append(meta, op), uint32(size))
					var buf []byte
					switch op {
					case 0:
						buf = make([]byte, size)
						rc.Req.ReadBuf = buf
					case 1:
						rc.Req.ReadLen = size
					case 2:
						rc.Req.WriteBulk = payload[:size]
					case 3:
						rc.Req.WriteLen = size
					}
					n, err := cl.Do(pc, rc)
					if err != nil || binary.LittleEndian.Uint64(rc.Reply.Meta) != xid {
						t.Errorf("call %d: reply %v, err %v", xid, rc.Reply.Meta, err)
						return
					}
					if op < 2 && n != size || op == 0 && !bytes.Equal(buf, payload[:size]) {
						t.Errorf("call %d: read %d of %d bytes, or not the payload", xid, n, size)
					}
					rc.Release()
					log = append(log, entry{xid, starts[xid], pc.Now()})
				}
				if left--; left == 0 {
					env.Stop()
				}
			})
		}
	})
	env.Run()
	if len(log) != callers*perCaller {
		t.Fatalf("%d calls logged, want %d", len(log), callers*perCaller)
	}
	sort.Slice(log, func(i, j int) bool { return log[i].xid < log[j].xid })
	h := fnv.New64a()
	for _, e := range log {
		binary.Write(h, binary.LittleEndian, e)
	}
	return h.Sum64(), env.Executed()
}

// TestFailedCallRecordNotRecycled fails a call while the server is still
// serving it: every packet from the server is lost, so the client's QP
// runs out of retries with the call pending. The server's thread goes on
// reading the request the failed record carries, so the record must not be
// reused: once the WAN heals, a second connection from the same node makes
// a call of its own, and the first thread must still see its own request.
func TestFailedCallRecordNotRecycled(t *testing.T) {
	env, tb := testbed(sim.Micros(100))
	defer env.Shutdown()
	var seen []string
	srv := ServeRDMA(tb.B[0], 4, func(p *sim.Proc, req *Request, reply *Reply) {
		p.Sleep(1000 * sim.Second) // well past the client's retry budget (~96 s)
		seen = append(seen, string(req.Meta))
		reply.Meta = append(reply.Meta, req.Meta...)
	})
	link, server := tb.WAN.Link(), tb.B[0].HCA.LID()
	link.DropFn = func(_ sim.Time, c ib.Crossing) bool { return c.Src == server }
	issue := func(p *sim.Proc, cl Client, meta byte) error {
		rc := cl.NewCall(1)
		rc.Req.Meta = append(rc.Req.Meta, meta)
		_, err := cl.Do(p, rc)
		rc.Release()
		return err
	}
	env.Go("client", func(p *sim.Proc) {
		defer env.Stop()
		if err := issue(p, NewRDMAClient(tb.A[0], srv), 'A'); err == nil {
			t.Error("a call whose acknowledgements are all lost succeeded")
			return
		}
		link.DropFn = nil
		if err := issue(p, NewRDMAClient(tb.A[0], srv), 'C'); err != nil {
			t.Errorf("call over the healed WAN: %v", err)
		}
	})
	env.Run()
	if got := strings.Join(seen, " "); got != "A C" {
		t.Errorf("the server's threads read the requests %q, want \"A C\"", got)
	}
}
