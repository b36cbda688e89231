package gstest

import (
	_ "encoding/gob" // want `import "encoding/gob" in deterministic package`
)
