// pbench — runs one benchmark workload and writes its result document.
//
//   pbench --workload svc_deep|des_torus --seed N --seconds S
//          --trace 0|1 --phd PATH --work-dir DIR --out FILE
//   pbench --provenance            build provenance as one JSON object
//
// perfbench/run.py builds this binary and phd, runs it, and prints the
// benchmark's one-line result from the document.
#include <signal.h>
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"
#include "obs/provenance.hpp"
#include "svc_stream.hpp"

int main(int argc, char** argv) {
  // The benchmark, and through it phd, ends with the script that runs it.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  pb::Args a;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--provenance") {
      ph::telemetry::JsonWriter w(std::cout);
      ph::obs::write_provenance_json(w);
      std::cout << "\n";
      return 0;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "pbench: %s needs a value\n", k.c_str());
      return 2;
    }
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--phd") a.phd = v;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--out") out = v;
    else {
      std::fprintf(stderr, "pbench: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  pb::SvcShape sh;
  const bool svc = pb::svc_shape(a.workload, sh);
  if ((!svc && a.workload != "des_torus") || !(a.seconds > 0) || a.work_dir.empty() ||
      out.empty() || (svc && a.phd.empty())) {
    std::fprintf(stderr, "pbench: need a known --workload, --seconds > 0, --work-dir, "
                         "--out (and --phd for svc workloads)\n");
    return 2;
  }
  std::filesystem::create_directories(a.work_dir);
  const pb::Result r = svc ? pb::run_svc(a) : pb::run_des(a);
  std::ofstream f(out);
  r.write_json(f);
  f.close();
  if (!f) {
    std::fprintf(stderr, "pbench: cannot write %s\n", out.c_str());
    return 2;
  }
  return r.correct ? 0 : 1;
}
