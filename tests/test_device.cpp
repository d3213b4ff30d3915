// Device performance model (the GPU/CPU substitution; README, "Modeled
// device vs measured host"): roofline kernel timing, utilization clamping,
// weight-stream bandwidth, launch/memcpy/barrier accounting, and the
// backend parameter sets.

#include <gtest/gtest.h>

#include "runtime/device.hpp"
#include "runtime/result.hpp"

namespace cortex::runtime {
namespace {

TEST(DeviceSpec, BackendLookup) {
  EXPECT_EQ(DeviceSpec::for_backend(Backend::kGpu).backend, Backend::kGpu);
  EXPECT_EQ(DeviceSpec::for_backend(Backend::kIntel).backend,
            Backend::kIntel);
  EXPECT_EQ(DeviceSpec::for_backend(Backend::kArm).backend, Backend::kArm);
  EXPECT_TRUE(DeviceSpec::v100_gpu().is_accelerator);
  EXPECT_FALSE(DeviceSpec::intel_cpu().is_accelerator);
}

TEST(DeviceSpec, RelativeMagnitudesSane) {
  const DeviceSpec gpu = DeviceSpec::v100_gpu();
  const DeviceSpec intel = DeviceSpec::intel_cpu();
  const DeviceSpec arm = DeviceSpec::arm_cpu();
  EXPECT_GT(gpu.flops_per_ns, intel.flops_per_ns);
  EXPECT_GT(intel.flops_per_ns, arm.flops_per_ns);
  EXPECT_GT(gpu.kernel_launch_ns, intel.kernel_launch_ns);
  EXPECT_GT(gpu.barrier_locked_ns, gpu.barrier_lockfree_ns);
}

TEST(Device, ComputeBoundKernelScalesWithFlops) {
  Device d(DeviceSpec::v100_gpu());
  KernelDesc k;
  k.flops = 1'000'000'000;  // 1 GFLOP, negligible bytes
  k.bytes_read = 64;
  k.parallelism = 1 << 20;  // full utilization
  const double t = d.kernel_exec_ns(k);
  EXPECT_NEAR(t, 1e9 / d.spec().flops_per_ns, t * 0.01);
  k.flops *= 2;
  EXPECT_NEAR(d.kernel_exec_ns(k), 2 * t, t * 0.02);
}

TEST(Device, MemoryBoundKernelScalesWithBytes) {
  Device d(DeviceSpec::v100_gpu());
  KernelDesc k;
  k.flops = 10;  // negligible
  k.bytes_read = 900'000'000;  // 0.9 GB at 900 GB/s => ~1 ms
  k.parallelism = 1 << 20;
  EXPECT_NEAR(d.kernel_exec_ns(k), 1e6, 1e4);
}

TEST(Device, LowParallelismKernelsRunAtReducedUtilization) {
  Device d(DeviceSpec::v100_gpu());
  KernelDesc wide;
  wide.flops = 1'000'000;
  wide.parallelism = 1 << 20;
  KernelDesc narrow = wide;
  narrow.parallelism = 256;  // a single node's vector
  // The narrow kernel is much slower despite equal flops: this is why
  // unbatched per-node execution is so slow on GPUs (Fig. 6).
  EXPECT_GT(d.kernel_exec_ns(narrow), 50 * d.kernel_exec_ns(wide));
}

TEST(Device, UtilizationClampsAtFloor) {
  Device d(DeviceSpec::v100_gpu());
  KernelDesc k1;
  k1.flops = 1'000'000;
  k1.parallelism = 1;
  KernelDesc k2 = k1;
  k2.parallelism = 2;  // still far below min utilization * full
  EXPECT_DOUBLE_EQ(d.kernel_exec_ns(k1), d.kernel_exec_ns(k2));
}

TEST(Device, WeightStreamsRunAtFullBandwidth) {
  // Contiguous weight streaming is not penalized by low occupancy,
  // unlike scattered activation reads of the same size.
  Device d(DeviceSpec::v100_gpu());
  KernelDesc scattered;
  scattered.bytes_read = 1'000'000;
  scattered.parallelism = 256;
  KernelDesc streamed;
  streamed.bytes_weights = 1'000'000;
  streamed.parallelism = 256;
  EXPECT_GT(d.kernel_exec_ns(scattered), 10 * d.kernel_exec_ns(streamed));
}

TEST(Device, LaunchAccumulatesProfilerCounters) {
  Device d(DeviceSpec::v100_gpu());
  KernelDesc k;
  k.flops = 100;
  k.bytes_read = 200;
  k.bytes_written = 300;
  k.bytes_weights = 50;
  k.parallelism = 1024;
  d.launch(k);
  d.launch(k);
  const Profiler& p = d.profiler();
  EXPECT_EQ(p.kernel_launches, 2);
  EXPECT_EQ(p.device_flops, 200);
  EXPECT_EQ(p.device_bytes_read, 2 * 250);  // activations + weights
  EXPECT_EQ(p.device_bytes_written, 600);
  EXPECT_NEAR(p.host_api_ns, 2 * d.spec().kernel_launch_ns, 1e-9);
  EXPECT_GT(p.device_compute_ns, 0.0);
}

TEST(Device, MemcpyAccounting) {
  Device d(DeviceSpec::v100_gpu());
  d.memcpy(900'000);  // 0.9 MB at 900 B/ns => 1000 ns device side
  EXPECT_EQ(d.profiler().memcpy_calls, 1);
  EXPECT_NEAR(d.profiler().device_memcpy_ns, 1000.0, 1.0);
  EXPECT_NEAR(d.profiler().host_api_ns, d.spec().memcpy_call_ns, 1e-9);
}

TEST(Device, BarrierVariantsDiffer) {
  Device d(DeviceSpec::v100_gpu());
  d.barrier(true);
  const double lock_free = d.profiler().device_compute_ns;
  d.barrier(false);
  const double locked = d.profiler().device_compute_ns - lock_free;
  EXPECT_EQ(d.profiler().barriers, 2);
  EXPECT_GT(locked, lock_free);
}

TEST(Profiler, TotalLatencySumsAllComponents) {
  Profiler p;
  p.graph_construction_ns = 1;
  p.dynamic_batching_ns = 2;
  p.mem_mgmt_host_ns = 3;
  p.linearization_ns = 4;
  p.host_other_ns = 5;
  p.host_api_ns = 6;
  p.device_compute_ns = 7;
  p.device_memcpy_ns = 8;
  EXPECT_DOUBLE_EQ(p.total_latency_ns(), 36.0);
  EXPECT_DOUBLE_EQ(p.total_latency_ms(), 36.0 * 1e-6);
}

TEST(Profiler, AccumulateAndScaleAverageRuns) {
  Profiler a;
  a.kernel_launches = 10;
  a.device_compute_ns = 100.0;
  Profiler b;
  b.kernel_launches = 20;
  b.device_compute_ns = 300.0;
  Profiler sum;
  sum.accumulate(a);
  sum.accumulate(b);
  sum.scale(0.5);
  EXPECT_EQ(sum.kernel_launches, 15);
  EXPECT_DOUBLE_EQ(sum.device_compute_ns, 200.0);
}

TEST(Device, ResetClearsProfiler) {
  Device d(DeviceSpec::intel_cpu());
  d.launch(KernelDesc{100, 100, 100, 0, 64});
  d.reset();
  EXPECT_EQ(d.profiler().kernel_launches, 0);
  EXPECT_DOUBLE_EQ(d.profiler().total_latency_ns(), 0.0);
}

}  // namespace
}  // namespace cortex::runtime
