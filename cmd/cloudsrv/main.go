// Command cloudsrv runs the CloudFog cloud tier: the authoritative virtual
// world. It admits players, collects their inputs, ticks the world, and
// streams compact update batches to registered supernodes (fogsrv).
//
//	cloudsrv -addr 127.0.0.1:7000 -npcs 8
//
// -tick is the idle tick period: the world only moves when a player acts,
// so an input is applied at once — or, when a tick ran less than a tenth
// of the period ago, when that tenth is up — and the periodic tick is what
// an idle world falls back to. The stats line counts both (ticks), the
// early ones alone (input) and the inputs they applied (actions).
//
// With -standby it instead runs a warm standby that follows the primary's
// checkpoint/log stream and promotes itself (epoch+1, same listen
// address) when the primary goes silent:
//
//	cloudsrv -addr 127.0.0.1:7001 -standby 127.0.0.1:7000
//
// On SIGTERM/SIGINT a primary shuts down gracefully: it flushes a final
// checkpoint to an attached standby, says goodbye to supernodes and
// players through the normal send queues, and drains them before closing.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloudfog/internal/fognet"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7000", "listen address")
	tick := flag.Duration("tick", fognet.DefaultTickInterval, "idle world tick period; an input is applied at once, or a tenth of it after the previous tick")
	npcs := flag.Int("npcs", 8, "NPCs to seed the world with")
	hbInterval := flag.Duration("hb-interval", fognet.DefaultHeartbeatInterval, "supernode heartbeat interval")
	hbMisses := flag.Int("hb-misses", fognet.DefaultHeartbeatMisses, "missed heartbeats before a supernode is evicted")
	statsEvery := flag.Duration("stats", 5*time.Second, "stats print interval (0 = silent)")
	seed := flag.Uint64("seed", 1, "ladder tie-break shuffle seed")
	ckptEvery := flag.Int("checkpoint-every", fognet.DefaultCheckpointEvery, "tick periods between checkpoints streamed to the standby")
	standby := flag.String("standby", "", "run as warm standby following this primary address")
	promoteAfter := flag.Duration("promote-after", fognet.DefaultPromoteAfter, "standby: silence on the primary's stream before promotion")
	flag.Parse()

	cfg := fognet.CloudConfig{
		Addr:              *addr,
		TickInterval:      *tick,
		NPCs:              *npcs,
		HeartbeatInterval: *hbInterval,
		HeartbeatMisses:   *hbMisses,
		Seed:              *seed,
		CheckpointEvery:   *ckptEvery,
	}
	var err error
	if *standby != "" {
		err = runStandby(*addr, *standby, *promoteAfter, *statsEvery, cfg)
	} else {
		err = runPrimary(cfg, *statsEvery)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func runPrimary(cfg fognet.CloudConfig, statsEvery time.Duration) error {
	cloud, err := fognet.NewCloudServer(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("cloudsrv: listening on %s (tick %v, %d NPCs)\n",
		cloud.Addr(), cfg.TickInterval, cfg.NPCs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var tickCh <-chan time.Time
	if statsEvery > 0 {
		ticker := time.NewTicker(statsEvery)
		defer ticker.Stop()
		tickCh = ticker.C
	}
	for {
		select {
		case <-sig:
			fmt.Println("cloudsrv: draining (final checkpoint, goodbyes) ...")
			cloud.Shutdown()
			fmt.Println("cloudsrv: shut down")
			return nil
		case <-tickCh:
			printCloudStats(cloud)
		}
	}
}

func runStandby(addr, primary string, promoteAfter, statsEvery time.Duration, cfg fognet.CloudConfig) error {
	sb, err := fognet.NewStandby(fognet.StandbyConfig{
		Addr:         addr,
		PrimaryAddr:  primary,
		PromoteAfter: promoteAfter,
		Seed:         cfg.Seed,
		Cloud:        cfg,
	})
	if err != nil {
		return err
	}
	fmt.Printf("cloudsrv: standby on %s following %s (promote after %v of silence)\n",
		sb.Addr(), primary, promoteAfter)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var tickCh <-chan time.Time
	if statsEvery > 0 {
		ticker := time.NewTicker(statsEvery)
		defer ticker.Stop()
		tickCh = ticker.C
	}
	promoted := false
	for {
		select {
		case <-sig:
			if srv := sb.Promoted(); srv != nil {
				fmt.Println("cloudsrv: draining promoted server ...")
				srv.Shutdown()
			}
			sb.Close()
			fmt.Println("cloudsrv: standby shut down")
			return nil
		case <-tickCh:
			if srv := sb.Promoted(); srv != nil {
				if !promoted {
					promoted = true
					s := srv.Stats()
					fmt.Printf("cloudsrv: PROMOTED — serving epoch %d from tick %d on %s\n",
						s.Epoch, s.Tick, sb.Addr())
				}
				printCloudStats(srv)
				continue
			}
			s := sb.Stats()
			fmt.Printf("cloudsrv: standby epoch=%d tick=%d checkpoints=%d log=%d attaches=%d\n",
				s.Epoch, s.LastTick, s.Checkpoints, s.LogEntries, s.Attaches)
		}
	}
}

func printCloudStats(cloud *fognet.CloudServer) {
	s := cloud.Stats()
	fmt.Printf("cloudsrv: epoch=%d ticks=%d input=%d actions=%d supernodes=%d aoi=%d interest=%d keycells=%d players=%d entities=%d update=%0.1f kbit ckpts=%d standby=%v evictions=%d departures=%d qdrops=%d qoe=%d\n",
		s.Epoch, s.Ticks, s.InputTicks, s.Actions, s.Supernodes, s.AoISupernodes, s.InterestUpdates, s.KeyframeCells,
		s.Players, s.Entities, float64(s.UpdateBits)/1000,
		s.Resilience.Checkpoints, s.StandbyAttached,
		s.Resilience.Evictions, s.Resilience.Departures, s.Resilience.SendQueueDrops,
		s.Resilience.QoEReports)
}
