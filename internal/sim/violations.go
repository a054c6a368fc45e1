package sim

import "gqosm/internal/invariant"

// maxViolationMsgs bounds a report's violation messages: the count gates
// CI, the first few messages carry the diagnosis.
const maxViolationMsgs = 20

// recordViolations adds err's oracle findings to a harness report: an
// *invariant.Error counts once per violation, any other error once.
// count stays exact; msgs keeps the first maxViolationMsgs findings,
// each prefixed with stage.
func recordViolations(count *int, msgs *[]string, stage string, err error) {
	if err == nil {
		return
	}
	add := func(msg string) {
		*count++
		if len(*msgs) < maxViolationMsgs {
			*msgs = append(*msgs, stage+": "+msg)
		}
	}
	if ie, ok := err.(*invariant.Error); ok {
		for _, v := range ie.Violations {
			add(v.String())
		}
		return
	}
	add(err.Error())
}
