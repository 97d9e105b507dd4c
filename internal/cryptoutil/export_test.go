package cryptoutil

// Sum appends the CMAC of msg to dst and returns the extended slice. It does
// not retain msg. Passing a dst with sufficient capacity avoids allocation.
func (c *CMAC) Sum(dst, msg []byte) []byte {
	var mac [MACSize]byte
	c.sum(&mac, msg)
	return append(dst, mac[:]...)
}
