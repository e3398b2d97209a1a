package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"hybridpde/internal/cache"
	"hybridpde/internal/cluster"
	"hybridpde/internal/serve"
)

// backendNames are the ring member names of the gateway fleet. They are
// fixed (the gateway's dialer maps them to the loopback listeners) so the
// ring pins shapes to the same backend in every run on every machine.
var backendNames = []string{"http://backend-a.bench.invalid", "http://backend-b.bench.invalid"}

// prefillShape is the cheap identity the solve cache is filled with before
// timing, so eviction is already in steady state when the window opens.
var prefillShape = shape{serve.KindBurgersSteady, 4}

// backend is one in-process serve.Server on a real loopback listener.
type backend struct {
	srv  *serve.Server
	hs   *http.Server
	url  string // real loopback URL
	name string // ring member name (== url without a gateway)
}

// fleet is one workload's system under test: the servers, the gateway when
// the workload has one, and where the load goes.
type fleet struct {
	w        *workload
	backends []*backend
	gw       *cluster.Gateway
	gwSrv    *http.Server
	target   string
	// refs holds, for the replay workload, each identity's set-up reply with
	// the measured times stripped.
	refs [][]byte
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func serveOn(ln net.Listener, h http.Handler) *http.Server {
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //pdevet:allow goroutine Serve returns when fleet.close shuts the server down, and Shutdown waits for it
	return hs
}

// newFleet builds the workload's servers and gateway with product defaults,
// apart from what the workload declares (grid cap, one worker per fleet
// backend). Workers and SolveProcs are spelled out as what the defaults give
// at GOMAXPROCS = nproc, because the process itself runs with one P more (see
// main): the open-loop dispatcher must not wait for a solver to be preempted.
func newFleet(w *workload, nproc int) (*fleet, error) {
	f := &fleet{w: w}
	cfgs := []serve.Config{{MaxGridN: 16, Workers: nproc, SolveProcs: 1}}
	if w.gateway {
		one := serve.Config{Workers: 1, SolveProcs: nproc}
		cfgs = []serve.Config{one, one}
	}
	dialTo := map[string]string{}
	for i, cfg := range cfgs {
		ln, url, err := listen()
		if err != nil {
			f.close()
			return nil, err
		}
		b := &backend{srv: serve.NewServer(cfg), url: url, name: url}
		b.hs = serveOn(ln, b.srv.Handler())
		if w.gateway {
			b.name = backendNames[i]
			dialTo[b.name[len("http://"):]+":80"] = ln.Addr().String()
		}
		f.backends = append(f.backends, b)
	}
	f.target = f.backends[0].url
	if w.gateway {
		var d net.Dialer
		gw, err := cluster.New(cluster.Config{
			Backends: backendNames,
			Client: &http.Client{Transport: &http.Transport{
				DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
					return d.DialContext(ctx, network, dialTo[addr])
				},
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			}},
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.gw = gw
		ln, url, err := listen()
		if err != nil {
			f.close()
			return nil, err
		}
		f.gwSrv = serveOn(ln, gw.Handler())
		f.target = url
	}
	return f, nil
}

// close shuts everything down and waits for the listeners' goroutines.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if f.gwSrv != nil {
		f.gwSrv.Shutdown(ctx) // a timed-out shutdown only leaves connections for process exit
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, b := range f.backends {
		b.hs.Shutdown(ctx) // as above
		b.srv.Drain(ctx)
	}
}

// owner returns the backend the ring pins a request's shape to.
func (f *fleet) owner(sh shape) *backend {
	if !f.w.gateway {
		return f.backends[0]
	}
	ring, err := cluster.NewRing(backendNames, 0)
	if err != nil {
		panic(err) // fixed, distinct, non-empty names
	}
	req := serve.Request{Problem: sh.problem, N: sh.n}
	if sh.problem != serve.KindBurgers1D {
		req.Order = 2
	}
	var kb cache.KeyBuilder
	name := ring.Assign(serve.ShapeKey(&req, &kb))
	for _, b := range f.backends {
		if b.name == name {
			return b
		}
	}
	panic("ring assigned an unknown backend " + name)
}

// each runs fn over n indices on the pool's lanes and collects failures.
func (p *pool) each(n int, fn func(l *lane, i int) result) []string {
	var mu sync.Mutex
	var fails []string
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for _, l := range p.lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for i := range next {
				if r := fn(l, i); r.fail != "" {
					mu.Lock()
					if len(fails) < maxFailureNotes {
						fails = append(fails, r.fail)
					}
					mu.Unlock()
				}
			}
		}(l)
	}
	wg.Wait()
	return fails
}

// warmRounds is how many times the warm-up sends one request per lane; with
// as many lanes as workers that reaches every worker several times.
const warmRounds = 4

// prepare brings the fleet to its measured regime: every backend's solve
// cache filled to capacity with cheap identities, the replay identities
// solved once (their replies kept as references), and every shape warmed on
// every worker — per-shape problem caches built, analog accelerators
// calibrated, connections open.
func (f *fleet) prepare(p *pool, g gen) error {
	pg := gen{w: &workload{}, seed: 0}
	for _, b := range f.backends {
		fails := p.each(cache.DefaultCapacity, func(l *lane, i int) result {
			return l.solve(b.url, pg.request(prefillShape, int64(i+1)), nil)
		})
		p.idle()
		if len(fails) > 0 {
			return fmt.Errorf("cache pre-fill: %s", fails[0])
		}
	}
	if f.w.replay {
		f.refs = make([][]byte, g.identities())
		fails := p.each(len(f.refs), func(l *lane, k int) result {
			r := l.solve(f.target, g.identity(k), nil)
			f.refs[k] = append([]byte(nil), stripTimings(r.body)...)
			return r
		})
		if len(fails) > 0 {
			return fmt.Errorf("replay set-up pass: %s", fails[0])
		}
	}
	warm := g.source(phaseWarm, 0).take(warmRounds * p.n)
	fails := p.each(len(warm), func(l *lane, i int) result {
		return l.do(f.w, f.target, warm[i], f.refs)
	})
	if len(fails) > 0 {
		return fmt.Errorf("warm-up: %s", fails[0])
	}
	return nil
}

// scrapeServe sums the backends' /metrics pages.
func (f *fleet) scrapeServe() scrape {
	s := scrape{}
	for _, b := range f.backends {
		s.merge(scrapeMetrics(b.srv.Handler()))
	}
	return s
}

// scrapeGateway reads the gateway's page (empty without a gateway).
func (f *fleet) scrapeGateway() scrape {
	if f.gw == nil {
		return scrape{}
	}
	return scrapeMetrics(f.gw.Handler())
}
