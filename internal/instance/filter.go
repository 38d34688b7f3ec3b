package instance

import (
	"strings"

	"repro/internal/extract"
	"repro/internal/s2sql"
)

// conditionKeys precomputes each condition's lower-cased attribute ID —
// the ID an instance's Attrs are sorted by — once per query, not once
// per instance.
func conditionKeys(conds []s2sql.PlannedCondition) []string {
	keys := make([]string, len(conds))
	for i := range conds {
		keys[i] = strings.ToLower(conds[i].Attribute.ID())
	}
	return keys
}

// satisfiesAll reports whether an instance meets every planned condition.
// An instance with no value for a constrained attribute does not match
// (paper §2.5: the result is the products that have brand Seiko AND case
// stainless-steel). keys is conditionKeys(conds).
//
// This is the residual safety net below the query planner's pushdown
// (internal/planner): even when constraints were already pushed toward
// the sources, every assembled instance is re-checked here, so pushdown
// is an optimization, never a correctness dependency.
func satisfiesAll(in *Instance, conds []s2sql.PlannedCondition, keys []string) (bool, error) {
	for i, c := range conds {
		ok, err := satisfies(in, c, keys[i])
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// conditionError reports a condition that could not be evaluated on an
// instance (e.g. a numeric comparison against a non-numeric value).
func conditionError(in *Instance, err error) extract.SourceError {
	return extract.SourceError{SourceID: strings.Join(in.Sources, ","), AttributeID: in.ID, Err: err}
}

func satisfies(in *Instance, c s2sql.PlannedCondition, key string) (bool, error) {
	values := in.values(key)
	if len(values) == 0 {
		return false, nil
	}
	// Multi-valued attributes match existentially. Value comparison is
	// s2sql.EvalCondition, shared with the planner's pushdown filters.
	for _, v := range values {
		ok, err := s2sql.EvalCondition(v, c)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}
