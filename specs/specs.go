// Package specs embeds the experiment catalogue: one scenario spec file
// (the workload.Spec format) per artefact of the paper's evaluation, plus
// the attack-strategy comparison. scenario.Scale.Experiments resolves
// them; each file also runs on its own through kadsweep -scenario.
package specs

import "embed"

// FS holds every catalogue file, named <experiment id>.json.
//
//go:embed *.json
var FS embed.FS
