// Command playercli runs a CloudFog thin client: it joins the game through
// the cloud, attaches to a supernode for video, streams synthetic inputs,
// and reports the received stream's statistics.
//
//	playercli -cloud 127.0.0.1:7000 -id 1 -game 3 -adapt -duration 30s
//	playercli -cloud 127.0.0.1:7000 -id 1 -transport udp   # request datagram video
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
	"cloudfog/internal/game"
	"cloudfog/internal/selection"
)

func main() {
	id := flag.Int("id", 1, "player ID")
	cloudAddr := flag.String("cloud", "127.0.0.1:7000", "cloud server address")
	gameID := flag.Int("game", 3, "game ID from the Table 2 catalog (1-5)")
	adapt := flag.Bool("adapt", false, "enable receiver-driven rate adaptation")
	duration := flag.Duration("duration", 30*time.Second, "how long to play (0 = until interrupted)")
	dialTimeout := flag.Duration("dial-timeout", fognet.DefaultDialTimeout, "connect/attach handshake timeout")
	seed := flag.Uint64("seed", 1, "input generator seed")
	selPolicy := flag.String("selection", "reputation", "failover-ladder ranking policy: random | reputation | global")
	maxRTT := flag.Float64("max-rtt", 0, "drop candidates whose measured RTT exceeds this many ms (0 = no filter)")
	transportFlag := flag.String("transport", "tcp",
		"video transport: tcp | udp (udp takes the datagram path a supernode's attach reply grants, on every attach; TCP stays the control path and the fallback)")
	flag.Parse()

	policy, err := selection.ParsePolicy(*selPolicy)
	if err != nil {
		log.Fatal(err)
	}
	if *transportFlag != "tcp" && *transportFlag != "udp" {
		log.Fatalf("playercli: -transport must be tcp or udp, got %q", *transportFlag)
	}
	if err := run(*id, *cloudAddr, *gameID, *adapt, *duration, *dialTimeout, *seed, policy, *maxRTT,
		*transportFlag == "udp"); err != nil {
		log.Fatal(err)
	}
}

func run(id int, cloudAddr string, gameID int, adapt bool, duration, dialTimeout time.Duration,
	seed uint64, policy selection.Policy, maxRTT float64, datagram bool) error {
	catalog := game.Catalog()
	if gameID < 1 || gameID > len(catalog) {
		return fmt.Errorf("game ID %d out of range 1..%d", gameID, len(catalog))
	}
	g := catalog[gameID-1]
	player, err := fognet.NewPlayerClient(fognet.PlayerConfig{
		PlayerID:          int32(id),
		CloudAddr:         cloudAddr,
		Game:              g,
		Adapt:             adapt,
		DialTimeout:       dialTimeout,
		Seed:              seed,
		Policy:            policy,
		MaxCandidateRTTMs: maxRTT,
		Datagram:          datagram,
	})
	if err != nil {
		return err
	}
	defer player.Close()
	fmt.Printf("playercli %d: playing %q (L%d, %.0f kbps, adapt=%v, transport=%s)\n",
		id, g.Name, g.DefaultQuality, g.Quality().BitrateKbps, adapt,
		map[bool]string{false: "tcp", true: "udp"}[datagram])

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var deadline <-chan time.Time
	if duration > 0 {
		deadline = time.After(duration)
	}
	start := time.Now()
	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
		case <-deadline:
		case <-ticker.C:
			printStats(player, start)
			continue
		}
		printStats(player, start)
		fmt.Println("playercli: leaving")
		return nil
	}
}

func printStats(player *fognet.PlayerClient, start time.Time) {
	s := player.Stats()
	elapsed := time.Since(start).Seconds()
	fmt.Printf("playercli: %5.1fs frames=%d (%.1f fps) video=%.0f kbps L%d switches=%d errors=%d tick=%d migrations=%d fallbacks=%d stall=%dms qoe=%d dgrams=%d lost=%d stale=%d loss=%.3f buffered=%d rerouted=%d dropped=%d discarded=%d resumes=%d\n",
		elapsed, s.Frames, float64(s.Frames)/elapsed,
		float64(s.VideoBits)/elapsed/1000, s.Level, s.RateSwitches, s.DecodeErrors, s.LastTick,
		s.Migrations, s.FallbackTransitions, s.StallMs, s.QoEReports,
		s.DatagramFrames, s.DatagramLost, s.DatagramStale, s.LossEWMA,
		s.BufferedActions, s.ReroutedActions, s.DroppedActions, s.DiscardedActions, s.CtrlResumes)
}
