package bootstrap

// The kernel entry points TestKernelPins calls, named here so that the file
// holding the pinned digests never changes with the kernel's signatures.
var (
	pinAccuracyInfo         = AccuracyInfo
	pinAccuracyInfoShed     = AccuracyInfoShed
	pinFromDistribution     = FromDistribution
	pinFromDistributionShed = FromDistributionShed
)
