package nfs

import (
	"repro/internal/cluster"
	"repro/internal/ipoib"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// nfsPort is the TCP port the NFS/TCP service listens on.
const nfsPort = 2049

// MountRDMA stands up an NFS/RDMA server on serverNode and returns it with
// a client mounted from clientNode.
func MountRDMA(serverNode, clientNode *cluster.Node) (*Server, *Client) {
	srv := NewServer(serverNode, RDMATouchNanos)
	rsrv := rpc.ServeRDMA(serverNode, DefaultThreads, srv.Handler())
	return srv, NewClientOn(clientNode, rpc.NewRDMAClient(clientNode, rsrv))
}

// MountTCP stands up an NFS server over TCP/IPoIB in the given IPoIB mode
// and returns it with a client mounted from clientNode. The mount is
// performed inside a short simulation run (TCP handshake), by a process on
// the client node's environment; under fault injection it can fail with the
// dial's error.
func MountTCP(env *sim.Env, serverNode, clientNode *cluster.Node, mode ipoib.Mode) (*Server, *Client, error) {
	net := ipoib.NewNetwork()
	sdev := net.Attach(serverNode.HCA, mode, 0)
	cdev := net.Attach(clientNode.HCA, mode, 0)
	sstack := tcpsim.NewStack(sdev, tcpsim.Config{})
	cstack := tcpsim.NewStack(cdev, tcpsim.Config{})
	srv := NewServer(serverNode, TCPTouchNanos)
	rpc.ServeTCP(sstack, nfsPort, DefaultThreads, srv.Handler())
	var cl *Client
	var mountErr error
	clientNode.HCA.Env().Go("nfs-mount", func(p *sim.Proc) {
		tc, err := rpc.NewTCPClient(p, cstack, sstack.Addr(), nfsPort)
		if err != nil {
			mountErr = err
		} else {
			cl = NewClientOn(clientNode, tc)
		}
		env.Stop()
	})
	env.Run()
	if mountErr != nil {
		return nil, nil, mountErr
	}
	return srv, cl, nil
}
