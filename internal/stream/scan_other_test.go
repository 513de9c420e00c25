//go:build !amd64

package stream

// archScanKernels lists no kernel: off amd64 the portable one is the only one.
func archScanKernels() []scanKernel { return nil }
