package rpc

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ipoib"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/topo"
)

// TestCallRecordsReleasedAtHome: every call record goes back exactly once,
// zeroed, onto the list of the environment it came from — a client's record
// to the client's site, a server's to the server's — on a world whose two
// sites run on two shards. Over RDMA the client reads the server's reply
// record last, so that record crosses home over the return lane; over TCP the
// server's writer frees its own. Each home's list is seeded, and the calls
// outnumber neither seed: at the end each list holds exactly its seeds.
func TestCallRecordsReleasedAtHome(t *testing.T) {
	const seed, calls = 64, 16
	for _, tr := range []struct {
		name  string
		serve func(client, server *cluster.Node, h Handler) dialFunc
	}{
		{"rdma", func(client, server *cluster.Node, h Handler) dialFunc {
			srv := ServeRDMA(server, 8, h)
			return func(*sim.Proc) (Client, error) { return NewRDMAClient(client, srv), nil }
		}},
		{"tcp-rc", func(client, server *cluster.Node, h Handler) dialFunc {
			net := ipoib.NewNetwork()
			ss := tcpsim.NewStack(net.Attach(server.HCA, ipoib.Connected, 0), tcpsim.Config{})
			cs := tcpsim.NewStack(net.Attach(client.HCA, ipoib.Connected, 0), tcpsim.Config{})
			ServeTCP(ss, 9999, 8, h)
			return func(p *sim.Proc) (Client, error) { return NewTCPClient(p, cs, ss.Addr(), 9999) }
		}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			env := sim.NewEnv()
			env.SetShardWorkers(2)
			nw, err := topo.Build(env, topo.Topology{
				Sites: []topo.Site{{Name: "A", Nodes: 1}, {Name: "B", Nodes: 1}},
				Links: []topo.Link{{A: "A", B: "B", Delay: sim.Millisecond}},
			})
			if err != nil {
				t.Fatal(err)
			}
			client, server := nw.Sites()[0].Nodes[0], nw.Sites()[1].Nodes[0]
			homes := []*sim.Env{client.HCA.Env(), server.HCA.Env()}
			if !env.Sharded() || homes[0] == homes[1] {
				t.Fatal("the two-site world was not partitioned one shard per site")
			}
			seeds := make([]map[*Call]bool, len(homes))
			for i, h := range homes {
				seeds[i] = map[*Call]bool{}
				for j := 0; j < seed; j++ {
					c := new(Call)
					callsOf(h).Put(c)
					seeds[i][c] = true
				}
			}
			dial := tr.serve(client, server, echoHandler)
			answered := 0
			homes[0].Go("client", func(p *sim.Proc) {
				cl, err := dial(p)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				for round := 0; round < 2; round++ {
					fanOut(p, cl, calls, func(i int, reply *Reply, err error) {
						if err != nil || !bytes.Equal(reply.Meta, []byte{byte(i)}) {
							t.Errorf("call %d: reply %v, err %v", i, reply, err)
							return
						}
						answered++
					})
				}
			})
			env.RunUntil(10 * sim.Second)
			env.Shutdown()
			if answered != 2*calls {
				t.Fatalf("%d of %d calls answered", answered, 2*calls)
			}
			for i, h := range homes {
				free := callsOf(h)
				seen := map[*Call]bool{}
				for free.Len() > 0 {
					c := free.Get()
					switch {
					case seen[c]:
						t.Errorf("home %d: a record was released twice", i)
					case !seeds[i][c]:
						t.Errorf("home %d: its list holds a record that is not its own", i)
					case !reflect.ValueOf(c).Elem().IsZero():
						t.Errorf("home %d: a released record was not zeroed", i)
					}
					seen[c] = true
				}
				if len(seen) != seed {
					t.Errorf("home %d: %d records back, want %d", i, len(seen), seed)
				}
			}
		})
	}
}
