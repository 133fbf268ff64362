// Command bqtop is a live terminal dashboard for a running bqserve: it
// polls GET /debug/timeseries (the server's retained metric history) and
// GET /healthz, and renders per-endpoint QPS / p99 / error rate, queue
// wait, epoch age, trace retention, and the SLO burn-rate verdict.
//
// Usage:
//
//	bqtop -addr http://localhost:8080            # refresh every 2s
//	bqtop -addr http://localhost:8080 -once      # one frame, no ANSI
//
// The server must run with -metrics (the sampler rides the registry);
// rows appear as traffic reaches each endpoint. All numbers come from
// the newest delta-window sample, so they describe the last sampling
// interval, not the process lifetime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"bcq/internal/obs"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "bqserve base URL")
	interval := flag.Duration("interval", 2*time.Second, "refresh period")
	once := flag.Bool("once", false, "render one frame and exit (no ANSI clear)")
	flag.Parse()

	client := &http.Client{Timeout: 10 * time.Second}
	for {
		frame, err := fetchFrame(client, strings.TrimRight(*addr, "/"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bqtop:", err)
			os.Exit(1)
		}
		if *once {
			fmt.Print(render(frame))
			return
		}
		// Clear and home before each frame so the dashboard repaints in
		// place like top(1).
		fmt.Print("\x1b[2J\x1b[H" + render(frame))
		time.Sleep(*interval)
	}
}

// healthzPayload is the subset of GET /healthz bqtop renders.
type healthzPayload struct {
	OK         bool            `json:"ok"`
	Status     string          `json:"status"`
	Epoch      string          `json:"epoch"`
	Shards     int             `json:"shards"`
	InFlight   int64           `json:"in_flight"`
	Saturation float64         `json:"saturation"`
	SLO        *obs.SLOVerdict `json:"slo"`
}

// endpointRow is one endpoint's newest delta-window summary.
type endpointRow struct {
	endpoint string
	qps      float64 // all outcomes
	okP99MS  float64 // outcome=ok latency p99
	errQPS   float64 // overload + timeout + error outcomes
}

// frame is everything one render needs, decoupled from HTTP so tests
// can build frames directly.
type frame struct {
	addr    string
	health  healthzPayload
	rows    []endpointRow
	queueMS float64 // queue-wait p99, newest window
	epochS  float64 // bcq_epoch_age_seconds
	traces  float64 // bcq_traces_resident
	p99MS   float64 // bcq_trace_rolling_p99_seconds
}

// fetchFrame polls the server once and reduces the newest sample of
// each relevant series into a frame.
func fetchFrame(client *http.Client, addr string) (frame, error) {
	fr := frame{addr: addr}
	var doc obs.TSDocument
	if err := getJSON(client, addr+"/debug/timeseries?last=1", &doc); err != nil {
		return fr, err
	}
	if err := getJSON(client, addr+"/healthz", &fr.health); err != nil {
		return fr, err
	}
	rows := map[string]*endpointRow{}
	sawEpoch := false
	for _, ser := range doc.Series {
		p, ok := newest(ser.Points)
		if !ok {
			continue
		}
		switch ser.Name {
		case "bcq_http_request_seconds":
			ep := ser.Labels["endpoint"]
			row := rows[ep]
			if row == nil {
				row = &endpointRow{endpoint: ep}
				rows[ep] = row
			}
			row.qps += p.V
			switch ser.Labels["outcome"] {
			case "ok":
				row.okP99MS = p.P99 * 1e3
			case "overload", "timeout", "error":
				row.errQPS += p.V
			}
		case "bcq_queue_wait_seconds":
			fr.queueMS = p.P99 * 1e3
		case "bcq_epoch_age_seconds":
			// One series per shard: the store's age is the youngest
			// shard's, the time since any commit.
			if !sawEpoch || p.V < fr.epochS {
				fr.epochS = p.V
			}
			sawEpoch = true
		case "bcq_traces_resident":
			fr.traces = p.V
		case "bcq_trace_rolling_p99_seconds":
			fr.p99MS = p.V * 1e3
		}
	}
	for _, row := range rows {
		fr.rows = append(fr.rows, *row)
	}
	sort.Slice(fr.rows, func(i, j int) bool { return fr.rows[i].endpoint < fr.rows[j].endpoint })
	return fr, nil
}

// newest returns the last (most recent) point of an oldest-first slice.
func newest(pts []obs.TSPoint) (obs.TSPoint, bool) {
	if len(pts) == 0 {
		return obs.TSPoint{}, false
	}
	return pts[len(pts)-1], true
}

// render lays the frame out as a fixed-width text dashboard.
func render(fr frame) string {
	var b strings.Builder
	status := fr.health.Status
	if status == "" {
		status = "ok"
	}
	fmt.Fprintf(&b, "bqserve %s  status=%s  epoch=%s  shards=%d  in-flight=%d  saturation=%.2f\n",
		fr.addr, status, fr.health.Epoch, fr.health.Shards, fr.health.InFlight, fr.health.Saturation)
	fmt.Fprintf(&b, "queue-wait p99 %8.2fms   epoch age %7.1fs   traces resident %4.0f   exec rolling p99 %8.2fms\n",
		fr.queueMS, fr.epochS, fr.traces, fr.p99MS)
	if slo := fr.health.SLO; slo != nil {
		if lat := slo.Latency; lat != nil {
			fmt.Fprintf(&b, "slo latency  burn short %6.1fx  long %6.1fx  (%d/%d bad short)\n",
				lat.ShortBurn, lat.LongBurn, lat.ShortBad, lat.ShortTotal)
		}
		if errs := slo.Errors; errs != nil {
			fmt.Fprintf(&b, "slo errors   burn short %6.1fx  long %6.1fx  (%d/%d bad short)\n",
				errs.ShortBurn, errs.LongBurn, errs.ShortBad, errs.ShortTotal)
		}
		if len(slo.Reasons) > 0 {
			fmt.Fprintf(&b, "degraded: %s\n", strings.Join(slo.Reasons, "; "))
		}
	}
	b.WriteString("\nENDPOINT     QPS        OK-P99      ERR/S\n")
	if len(fr.rows) == 0 {
		b.WriteString("(no traffic sampled yet — is bqserve running with -metrics?)\n")
		return b.String()
	}
	for _, row := range fr.rows {
		fmt.Fprintf(&b, "%-10s %8.2f %9.2fms %8.2f\n", row.endpoint, row.qps, row.okP99MS, row.errQPS)
	}
	return b.String()
}

// getJSON fetches one URL and decodes its JSON body.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
