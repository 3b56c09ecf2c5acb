// Command fogsrv runs one CloudFog supernode: it registers with the cloud,
// replicates the virtual world from the update stream, and renders and
// streams per-player game video on its stream address.
//
//	fogsrv -cloud 127.0.0.1:7000 -addr 127.0.0.1:7100 -capacity 8
//	fogsrv -cloud 127.0.0.1:7000 -transport udp   # offer the datagram video path
//
// On SIGTERM/SIGINT the supernode departs gracefully: buffered player
// actions are flushed upstream and the cloud is told goodbye, so the
// departure is recorded as such rather than as a heartbeat eviction.
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
	name := flag.String("name", "fog", "supernode name")
	cloudAddr := flag.String("cloud", "127.0.0.1:7000", "cloud server address")
	addr := flag.String("addr", "127.0.0.1:0", "stream listen address")
	capacity := flag.Int("capacity", 8, "max concurrent players")
	frame := flag.Duration("frame", fognet.DefaultFrameInterval, "video frame interval")
	dialTimeout := flag.Duration("dial-timeout", fognet.DefaultDialTimeout, "cloud dial timeout")
	statsEvery := flag.Duration("stats", 5*time.Second, "stats print interval (0 = silent)")
	seed := flag.Uint64("seed", 1, "reconnect-jitter seed")
	transportFlag := flag.String("transport", "tcp",
		"video transport: tcp | udp (udp opens a datagram socket and grants it in every attach reply; a session's frames go to UDP once its player's hello lands, TCP stays the control path and the fallback)")
	dgramAddr := flag.String("dgram-addr", "",
		"UDP listen address for -transport udp (default: stream host, ephemeral port)")
	aoi := flag.Bool("aoi", false,
		"subscribe to the cloud's interest-managed (AoI) update stream: name the attached players and receive per-cell batches around their avatars instead of the full world")
	flag.Parse()

	if *transportFlag != "tcp" && *transportFlag != "udp" {
		log.Fatalf("fogsrv: -transport must be tcp or udp, got %q", *transportFlag)
	}
	if err := run(*name, *cloudAddr, *addr, *capacity, *frame, *dialTimeout, *statsEvery, *seed,
		*transportFlag == "udp", *dgramAddr, *aoi); err != nil {
		log.Fatal(err)
	}
}

func run(name, cloudAddr, addr string, capacity int, frame, dialTimeout, statsEvery time.Duration,
	seed uint64, datagram bool, dgramAddr string, aoi bool) error {
	fog, err := fognet.NewFogNode(fognet.FogConfig{
		Name:          name,
		CloudAddr:     cloudAddr,
		StreamAddr:    addr,
		Capacity:      capacity,
		FrameInterval: frame,
		DialTimeout:   dialTimeout,
		Seed:          seed,
		Datagram:      datagram,
		DatagramAddr:  dgramAddr,
		AoI:           aoi,
	})
	if err != nil {
		return err
	}
	transport := "tcp"
	if datagram {
		transport = "udp (tcp control + fallback)"
	}
	stream := "full-world"
	if aoi {
		stream = "aoi"
	}
	fmt.Printf("fogsrv %q: supernode %d streaming on %s (capacity %d, transport %s, updates %s)\n",
		name, fog.ID(), fog.StreamAddr(), capacity, transport, stream)

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
			fmt.Println("fogsrv: departing (flush buffered actions, goodbye to cloud)")
			fog.Shutdown()
			fmt.Println("fogsrv: shut down")
			return nil
		case <-tickCh:
			s := fog.Stats()
			line := fmt.Sprintf("fogsrv %q: epoch=%d tick=%d attached=%d frames=%d early=%d full_encodes=%d dgrams=%d video=%0.1f kbit applied=%d stale=%d update_decode_errs=%d reconnects=%d resumes=%d buffered=%d",
				name, s.Epoch, s.ReplicaTick, s.Attached, s.Frames, s.EarlyFrames, s.FullEncodes, s.DatagramFrames,
				float64(s.VideoBits)/1000, s.AppliedDeltas, s.StaleDeltas, s.UpdateDecodeErrors,
				s.Resilience.Reconnects, s.Resilience.Resumes, s.BufferedNow)
			if aoi {
				line += fmt.Sprintf(" cell_batches=%d keyframes=%d", s.CellBatches, s.KeyframesApplied)
			}
			fmt.Println(line)
		}
	}
}
