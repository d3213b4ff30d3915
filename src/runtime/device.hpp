#pragma once
// Device performance model: the stand-in for the paper's hardware testbeds
// (V100 GPU, Intel CascadeLake, ARM Graviton2 — Table 3).
//
// All frameworks in this repo execute their numerics on the host CPU for
// correctness, but *latency* is accounted on a virtual device clock driven
// by first-principles quantities the frameworks genuinely differ in:
//   - number of kernel launches (launch + API overhead each),
//   - bytes moved to/from off-chip memory (fusion and persistence reduce
//     these; a roofline max(flops/peak, bytes/bw) gives kernel time),
//   - achievable utilization (tiny unbatched kernels cannot fill a GPU),
//   - explicit memcpys for input contiguity (vendor-library frameworks),
//   - global synchronization barriers (lock-based vs lock-free).
// Host-side framework work (graph construction, dynamic batching,
// linearization) is real C++ executed here and measured with a real clock.
//
// This mirrors the paper's own analysis: Table 6 explains the end-to-end
// gaps via exactly these counters, and Appendix C uses the same roofline
// reasoning. Parameters below are calibrated to published datasheet
// numbers; README, "Modeled device vs measured host", documents the
// substitution.

#include <cstdint>
#include <string>

#include "runtime/profiler.hpp"
#include "support/fingerprint.hpp"

namespace cortex::runtime {

/// Which of the paper's three backends a DeviceSpec models.
enum class Backend { kGpu, kIntel, kArm };

/// Performance parameters of a modeled backend.
struct DeviceSpec {
  std::string name;
  Backend backend = Backend::kGpu;
  /// Peak arithmetic throughput, flops per nanosecond.
  double flops_per_ns = 1.0;
  /// Off-chip (global) memory bandwidth, bytes per nanosecond.
  double bytes_per_ns = 1.0;
  /// On-chip scratchpad/register capacity available for model persistence.
  std::int64_t onchip_capacity_bytes = 0;
  /// Per-node scratch a fused kernel may keep on-chip (registers + shared
  /// memory per block). Cells whose register footprint exceeds this spill
  /// intermediates to off-chip memory (Appendix D's register pressure —
  /// the reason MV-RNN's fused kernels are comparatively slow).
  std::int64_t fused_scratch_bytes = 1 << 20;
  /// Host-side cost of launching one kernel (driver/API).
  double kernel_launch_ns = 0.0;
  /// Device-side gap between dependent kernels.
  double inter_kernel_gap_ns = 0.0;
  /// Host-side cost of issuing one explicit memcpy (contiguity copies).
  double memcpy_call_ns = 0.0;
  /// Cost of one device-wide barrier, lock-free implementation.
  double barrier_lockfree_ns = 0.0;
  /// Cost of one device-wide barrier, lock-based implementation.
  double barrier_locked_ns = 0.0;
  /// Parallelism (elements in flight) needed to reach peak throughput;
  /// kernels exposing fewer parallel elements run at reduced utilization.
  double full_utilization_parallelism = 1.0;
  /// Floor on utilization so tiny kernels still make progress.
  double min_utilization = 0.01;
  /// True for accelerators with manually managed on-chip memory, where
  /// kernel fusion additionally avoids off-chip round trips.
  bool is_accelerator = false;

  /// V100-like GPU (14 TFLOP/s fp32, 900 GB/s HBM2, ~5 us launch path).
  static DeviceSpec v100_gpu();
  /// 8-core/16-thread AVX-512 Intel server CPU.
  static DeviceSpec intel_cpu();
  /// 8-core ARM Graviton2.
  static DeviceSpec arm_cpu();
  /// Spec for a named Backend.
  static DeviceSpec for_backend(Backend b);
};

/// Field-wise equality over every DeviceSpec field (including `name`).
bool operator==(const DeviceSpec& a, const DeviceSpec& b);
bool operator!=(const DeviceSpec& a, const DeviceSpec& b);

/// Appends every DeviceSpec field to the fingerprint. The `name` label is
/// included even though it does not affect modeled latency: plans for
/// differently-named specs stay distinguishable in cache stats, and a
/// spec mutation of *any* field is guaranteed to change the plan-cache
/// key (the contract the fingerprint-collision tests pin).
void fingerprint(const DeviceSpec& spec, support::FingerprintBuilder& fb);

/// Description of one kernel invocation handed to the device model.
struct KernelDesc {
  /// Floating-point operations performed.
  std::int64_t flops = 0;
  /// Bytes read from off-chip memory (input activations, gather tables):
  /// scattered traffic whose achievable bandwidth scales with occupancy.
  std::int64_t bytes_read = 0;
  /// Bytes written to off-chip memory (materialized outputs).
  std::int64_t bytes_written = 0;
  /// Weight bytes streamed from off-chip (zero when persisted on-chip).
  /// Contiguous, prefetchable streams run at full bandwidth even for
  /// low-occupancy kernels, unlike the scattered activation traffic.
  std::int64_t bytes_weights = 0;
  /// Independent parallel elements the kernel exposes (rows x width).
  std::int64_t parallelism = 1;
};

/// A virtual device accumulating modeled time into a Profiler.
class Device {
 public:
  explicit Device(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& spec() const { return spec_; }
  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }

  /// Models one kernel launch + execution.
  void launch(const KernelDesc& k);

  /// Models an explicit host-initiated device memcpy of `bytes`
  /// (the contiguity copies vendor-library frameworks must perform).
  void memcpy(std::int64_t bytes);

  /// Models one device-wide synchronization barrier.
  void barrier(bool lock_free);

  /// Modeled execution time of a kernel, excluding launch overhead.
  double kernel_exec_ns(const KernelDesc& k) const;

  void reset() { profiler_.reset(); }

 private:
  DeviceSpec spec_;
  Profiler profiler_;
};

}  // namespace cortex::runtime
