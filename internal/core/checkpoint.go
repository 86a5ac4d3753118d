package core

import "sort"

// QuarantineRecords returns a copy of every fault remembered by the
// quarantine tier, sorted by sequence (shortest first, then
// lexicographically) so the snapshot is a function of the quarantine *set*,
// not of map iteration order. The serve layer persists these into job
// checkpoints so a restarted search does not re-run sequences already known
// to panic or stall.
func (p *Program) QuarantineRecords() []*EvalFault {
	p.mu.Lock()
	recs := []*EvalFault{}
	for _, e := range p.seqs {
		if e.fault != nil {
			recs = append(recs, e.fault)
		}
	}
	p.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return lessSeq(recs[i].Seq, recs[j].Seq) })
	return recs
}

// RestoreQuarantine seeds the quarantine tier from checkpointed records.
// Only quarantinable kinds (panic, deadline) are accepted; anything else in
// a tampered checkpoint is dropped rather than poisoning the profile-error
// re-charge semantics. Restored entries behave exactly like organically
// quarantined ones: every query is re-charged one sample and one fault, and
// SetLimits clears the deadline-class entries.
func (p *Program) RestoreQuarantine(recs []*EvalFault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range recs {
		if f == nil || !f.Kind.quarantinable() {
			continue
		}
		cp := *f
		cp.Seq = append([]int(nil), f.Seq...)
		p.entry(seqKey(cp.Seq)).fault = &cp
	}
}
