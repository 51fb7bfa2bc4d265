package mp_test

import (
	"fmt"
	"log"

	"repro/internal/mp"
)

// ExampleLaunch runs a two-rank exchange on the in-process fabric: rank 0
// sends, rank 1 receives and reduces with rank 0 via AllReduce.
func ExampleLaunch() {
	err := mp.Launch(2, func(c mp.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []byte("tile faces")); err != nil {
				return err
			}
		} else {
			buf := make([]byte, 32)
			st, err := c.Recv(0, 7, buf)
			if err != nil {
				return err
			}
			fmt.Printf("rank 1 got %q from rank %d\n", buf[:st.Bytes], st.Source)
		}
		sum, err := mp.AllReduce(c, []float64{float64(c.Rank() + 1)}, func(a, b float64) float64 { return a + b })
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Printf("allreduce sum = %g\n", sum[0])
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// rank 1 got "tile faces" from rank 0
	// allreduce sum = 3
}
