#include "pfsem/apps/registry.hpp"

#include "pfsem/apps/programs.hpp"

namespace pfsem::apps {

namespace {

std::vector<AppInfo> build_registry() {
  std::vector<AppInfo> apps;
  auto add = [&](std::string name, std::string app, std::string iolib,
                 std::string desc, Expectation e,
                 std::function<void(Harness&)> run) {
    apps.push_back({std::move(name), std::move(app), std::move(iolib),
                    std::move(desc), e, std::move(run)});
  };

  // --- FLASH (Table 4: WAW-S + WAW-D under session; cleared by commit) ---
  add("FLASH-fbs", "FLASH", "HDF5",
      "2D Sedov explosion, fixed block size -> collective I/O; checkpoint "
      "every 20 of 100 steps",
      {.xy = "M-1", .layout = "strided-cyclic", .waw_s = true, .waw_d = true,
       .commit_clears = true},
      [](Harness& h) { run_flash(h, /*fbs=*/true); });
  add("FLASH-nofbs", "FLASH", "HDF5",
      "2D Sedov explosion, dynamic block size -> independent I/O",
      {.xy = "N-1", .layout = "strided", .waw_s = true, .waw_d = true,
       .commit_clears = true},
      [](Harness& h) { run_flash(h, /*fbs=*/false); });

  add("ENZO", "ENZO", "HDF5",
      "Non-cosmological collapse test; one HDF5 file per rank per dump",
      {.xy = "N-N", .layout = "consecutive", .raw_s = true},
      [](Harness& h) { run_enzo(h); });

  add("NWChem", "NWChem", "POSIX",
      "3-Carboxybenzisoxazole gas-phase dynamics; per-rank scratch + rank-0 "
      "trajectory with in-place header rewrites",
      {.xy = "N-N", .layout = "consecutive", .waw_s = true, .raw_s = true},
      [](Harness& h) { run_nwchem(h); });

  add("pF3D-IO", "pF3D-IO", "POSIX",
      "One pF3D checkpoint step; file per process + trailer read-back",
      {.xy = "N-N", .layout = "consecutive", .raw_s = true},
      [](Harness& h) { run_pf3d(h); });

  add("MACSio", "MACSio", "Silo",
      "ALE3D I/O proxy; Silo multifile with baton-ordered group files",
      {.xy = "N-M", .layout = "strided", .waw_s = true},
      [](Harness& h) { run_macsio(h); });

  add("GAMESS", "GAMESS", "POSIX",
      "Closed-shell test on ethyl alcohol; per-writer dictionary files with "
      "in-place master-index rewrites",
      {.xy = "M-M", .layout = "consecutive", .waw_s = true},
      [](Harness& h) { run_gamess(h); });

  // --- LAMMPS, five dump back-ends ---
  add("LAMMPS-ADIOS", "LAMMPS", "ADIOS",
      "2D LJ flow; dump every 20 of 100 steps via ADIOS2 BP4",
      {.xy = "M-M", .layout = "consecutive", .waw_s = true},
      [](Harness& h) { run_lammps(h, LammpsIo::Adios); });
  add("LAMMPS-NetCDF", "LAMMPS", "NetCDF",
      "2D LJ flow; dump via classic NetCDF with in-place numrecs updates",
      {.xy = "1-1", .layout = "consecutive", .waw_s = true},
      [](Harness& h) { run_lammps(h, LammpsIo::NetCdf); });
  add("LAMMPS-HDF5", "LAMMPS", "HDF5", "2D LJ flow; rank-0 h5md dump files",
      {.xy = "1-1", .layout = "consecutive"},
      [](Harness& h) { run_lammps(h, LammpsIo::Hdf5); });
  add("LAMMPS-MPIIO", "LAMMPS", "MPI-IO",
      "2D LJ flow; collective per-step dump files",
      {.xy = "M-1", .layout = "strided"},
      [](Harness& h) { run_lammps(h, LammpsIo::MpiIo); });
  add("LAMMPS-POSIX", "LAMMPS", "POSIX",
      "2D LJ flow; rank-0 text dump appended per step",
      {.xy = "1-1", .layout = "consecutive"},
      [](Harness& h) { run_lammps(h, LammpsIo::Posix); });

  add("MILC-QCD Serial", "MILC-QCD", "POSIX",
      "Lattice QCD save_serial: rank 0 writes the lattice",
      {.xy = "1-1", .layout = "consecutive"},
      [](Harness& h) { run_milc(h, /*parallel=*/false); });
  add("MILC-QCD Parallel", "MILC-QCD", "POSIX",
      "Lattice QCD save_parallel: every rank writes its sites",
      {.xy = "N-1", .layout = "strided"},
      [](Harness& h) { run_milc(h, /*parallel=*/true); });

  add("ParaDiS-HDF5", "ParaDiS", "HDF5",
      "Dislocation dynamics restart dumps; HDF5 back-end",
      {.xy = "N-1", .layout = "strided"},
      [](Harness& h) { run_paradis(h, /*hdf5=*/true); });
  add("ParaDiS-POSIX", "ParaDiS", "POSIX",
      "Dislocation dynamics restart dumps; POSIX back-end",
      {.xy = "N-1", .layout = "strided"},
      [](Harness& h) { run_paradis(h, /*hdf5=*/false); });

  add("VASP", "VASP", "POSIX",
      "GaAs elastic properties; all ranks read inputs, rank 0 writes OUTCAR",
      {.xy = "N-1", .layout = "consecutive"},
      [](Harness& h) { run_vasp(h); });

  add("LBANN", "LBANN", "POSIX",
      "Autoencoder on CIFAR-10; every rank reads the whole dataset",
      {.xy = "N-1", .layout = "consecutive"},
      [](Harness& h) { run_lbann(h); });

  add("QMCPACK", "QMCPACK", "HDF5",
      "Diffusion Monte Carlo of a water molecule; rank-0 HDF5 checkpoints",
      {.xy = "1-1", .layout = "consecutive"},
      [](Harness& h) { run_qmcpack(h); });

  add("Nek5000", "Nek5000", "POSIX",
      "Eddy solutions; checkpoint every 100 of 1000 steps via rank 0",
      {.xy = "1-1", .layout = "consecutive"},
      [](Harness& h) { run_nek5000(h); });

  add("GTC", "GTC", "POSIX",
      "Gyrokinetic toroidal code built-in 64p example; rank-0 output",
      {.xy = "1-1", .layout = "consecutive"},
      [](Harness& h) { run_gtc(h); });

  add("Chombo", "Chombo", "HDF5",
      "3D variable-coefficient AMR Poisson solve; shared HDF5 file",
      {.xy = "N-1", .layout = "strided"},
      [](Harness& h) { run_chombo(h); });

  add("HACC-IO MPI-IO", "HACC-IO", "MPI-IO",
      "HACC checkpoint kernel; shared file, independent writes at rank "
      "offsets (not classified in the paper's Table 3)",
      {.xy = "", .layout = ""},
      [](Harness& h) { run_hacc(h, /*mpiio=*/true); });
  add("HACC-IO POSIX", "HACC-IO", "POSIX",
      "HACC checkpoint kernel; file per process",
      {.xy = "N-N", .layout = "consecutive"},
      [](Harness& h) { run_hacc(h, /*mpiio=*/false); });

  add("VPIC-IO", "VPIC-IO", "HDF5",
      "1D particle array, 8 variables, collective HDF5 into one file",
      {.xy = "M-1", .layout = "strided-cyclic"},
      [](Harness& h) { run_vpic(h); });

  return apps;
}

}  // namespace

const std::vector<AppInfo>& registry() {
  static const std::vector<AppInfo> apps = build_registry();
  return apps;
}

const AppInfo* find_app(std::string_view name) {
  for (const auto& info : registry()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

namespace {

void arm_and_run(Harness& h, const AppInfo& info, const FaultSetup* faults,
                 fault::FaultStats* stats_out) {
  if (faults != nullptr) {
    h.set_faults(faults->plan, faults->seed);
    h.set_retry_policy(faults->retry);
  }
  info.run(h);
  if (stats_out != nullptr) {
    *stats_out = h.injector() != nullptr ? h.injector()->stats()
                                         : fault::FaultStats{};
  }
}

trace::TraceBundle run_on(Harness& h, const AppInfo& info,
                          const FaultSetup* faults,
                          fault::FaultStats* stats_out) {
  arm_and_run(h, info, faults, stats_out);
  return h.finish();
}

}  // namespace

trace::TraceBundle run_app(const AppInfo& info, AppConfig cfg, Backend backend,
                           std::vector<sim::ClockModel> clocks,
                           const FaultSetup* faults,
                           fault::FaultStats* stats_out) {
  Harness h(cfg, std::move(backend), std::move(clocks));
  return run_on(h, info, faults, stats_out);
}

trace::StreamMeta run_app_stream(const AppInfo& info, trace::StreamSink& sink,
                                 AppConfig cfg, Backend backend,
                                 std::vector<sim::ClockModel> clocks,
                                 const FaultSetup* faults,
                                 fault::FaultStats* stats_out) {
  cfg.stream_sink = &sink;
  Harness h(cfg, std::move(backend), std::move(clocks));
  arm_and_run(h, info, faults, stats_out);
  return h.finish_stream();
}

}  // namespace pfsem::apps
