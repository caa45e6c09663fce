// Tenancy admission and the shard-local /stats endpoint. Every tenant-keyed
// write (POST /solve, POST /jobs, POST /instances/{fp}/delta) funnels
// through admitTenant: resolve the tenant, verify this shard owns it (421
// otherwise — the client or router holds a stale shard map), and charge the
// tenant's token bucket (429 + Retry-After when the bucket is dry). The
// quota layers on top of the shared solve semaphore: the semaphore bounds
// total work, the quota bounds any one tenant's share of it.
package main

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"phocus/internal/fleet"
	"phocus/internal/jobs"
	"phocus/internal/obs"
)

// admitTenant runs tenancy admission for one tenant-keyed request. When it
// reports ok=false the response has already been written.
func (s *server) admitTenant(w http.ResponseWriter, r *http.Request) (tenant string, ok bool) {
	tenant, err := fleet.TenantFromRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return "", false
	}
	if s.shards != nil && !s.shards.Owns(tenant) {
		owner := s.shards.Owner(tenant)
		obs.RecordTenantMisrouted(s.reg, s.tenantLabel(tenant))
		http.Error(w, fmt.Sprintf("tenant %q belongs to shard %d (%s), not shard %d",
			tenant, owner, s.shards.URL(owner), s.shards.Self), http.StatusMisdirectedRequest)
		return "", false
	}
	if allowed, retryAfter := s.quota.Allow(tenant); !allowed {
		obs.RecordTenantThrottled(s.reg, s.tenantLabel(tenant))
		sec := int(math.Ceil(retryAfter.Seconds()))
		if sec < 1 {
			sec = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		http.Error(w, fmt.Sprintf("tenant %q over its request quota", tenant), http.StatusTooManyRequests)
		return "", false
	}
	return tenant, true
}

// tenantLabel bounds a tenant ID to a safe metric label.
func (s *server) tenantLabel(tenant string) string {
	return s.tenantLabels.Label(tenant)
}

// statsDoc is the wire format of GET /stats: a cheap shard-local snapshot
// the router scatter-gathers into the fleet view.
type statsDoc struct {
	// Shard identifies this process in the fleet ("" fields when running
	// standalone).
	Shard *shardDoc `json:"shard,omitempty"`
	// Jobs counts retained jobs by lifecycle state.
	Jobs map[string]int `json:"jobs"`
	// QueueDepth / QueueBytes are the live queue gauges.
	QueueDepth int   `json:"queue_depth"`
	QueueBytes int64 `json:"queue_bytes"`
	// TenantsTracked is the number of live tenant quota buckets.
	TenantsTracked int  `json:"tenants_tracked"`
	Workers        int  `json:"workers"`
	Ready          bool `json:"ready"`
}

type shardDoc struct {
	Self           int    `json:"self"`
	Shards         int    `json:"shards"`
	MapFingerprint string `json:"map_fingerprint"`
}

// handleStats is GET /stats.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	counts := s.jobs.Counts()
	doc := statsDoc{
		Jobs:           make(map[string]int, len(counts)+1),
		TenantsTracked: s.quota.Tenants(),
		Workers:        s.workers,
		Ready:          s.snapWarmed.Load() && s.jobs.Ready(),
	}
	total := 0
	for state, n := range counts {
		doc.Jobs[string(state)] = n
		total += n
	}
	doc.Jobs["total"] = total
	doc.QueueDepth = counts[jobs.StateQueued]
	doc.QueueBytes = int64(s.reg.Gauge("phocus_jobs_queue_bytes").Value())
	if s.shards != nil {
		doc.Shard = &shardDoc{
			Self:           s.shards.Self,
			Shards:         s.shards.N(),
			MapFingerprint: s.shards.Fingerprint(),
		}
	}
	obs.SetTenantsTracked(s.reg, doc.TenantsTracked)
	writeJSON(w, http.StatusOK, doc)
}
