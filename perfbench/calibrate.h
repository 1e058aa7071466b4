// Host-speed reference for the benchmark's end-to-end times.
//
// The benchmark runs on shared cores whose speed changes by up to 2x from
// one minute to the next, with the neighbours' load. A fixed reference
// kernel, timed on the same core right before and after every job, measures
// that speed. The time the program computes is scaled by kReferenceSeconds /
// (the faster of the two readings): a job that takes 1.5 s while the kernel
// runs 1.5x its reference time reports 1.0 reference seconds. A change to the
// program moves the job and not the kernel, so it still shows in full.
#ifndef HV_PERFBENCH_CALIBRATE_H
#define HV_PERFBENCH_CALIBRATE_H

namespace perfbench {

/// The kernel's time at the reference speed. The fastest it ran on the
/// 2.0 GHz Xeon KVM guest the bounds were set on was 6.0 ms, on a busy day.
inline constexpr double kReferenceSeconds = 0.005;

/// Runs the reference kernel three times; returns its fastest time, in
/// seconds. The kernel is ordered-map inserts and lookups with 128-bit
/// multiplies, the same mix of allocation, pointer chasing and wide
/// arithmetic that the checker's hot loops are made of. It allocates from the
/// global heap as the program does: in trials it followed the jobs' slowdowns
/// more closely than the same kernel in an arena of its own.
double reference_kernel_seconds();

}  // namespace perfbench

#endif
