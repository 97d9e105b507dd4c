package packet

// Serialize allocates a buffer of exactly the right size and serializes into
// it. Hot paths should use SerializeTo with a reused buffer instead.
func (p *Packet) Serialize() ([]byte, error) {
	buf := make([]byte, p.Length())
	if _, err := p.SerializeTo(buf); err != nil {
		return nil, err
	}
	return buf, nil
}
