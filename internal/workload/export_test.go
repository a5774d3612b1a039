package workload

// ValidSpecJSON and DecodeRejectionInputs hand the decoder's test table to
// FuzzDecode, which lives in the external test package so that it can
// resolve what it decodes.
const ValidSpecJSON = validSpecJSON

func DecodeRejectionInputs() []string {
	out := make([]string, len(decodeRejections))
	for i, tt := range decodeRejections {
		out[i] = tt.in
	}
	return out
}
