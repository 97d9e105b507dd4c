package reservation

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id.SrcAS.IsZero() && id.Num == 0 }
