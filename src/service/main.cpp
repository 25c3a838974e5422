// cosm_service: the long-lived what-if prediction service over stdio.
//
// Reads one JSON request per line from stdin, writes one JSON response
// per line to stdout (flushed per line, so a driving process can pipe
// requests interactively), exits 0 at EOF.  Protocol: see
// src/service/service.hpp.
//
//   $ echo '{"op":"register","cluster":"a","rate":400,"devices":8}
//   {"op":"sla","cluster":"a","sla":0.1}' | ./cosm_service
//
// Flags:
//   --trace-json=FILE  enable observability; export the obs trace
//                      (counters incl. service.requests, spans) at EOF
#include <fstream>
#include <iostream>
#include <string>

#include "obs/obs.hpp"
#include "service/service.hpp"

int main(int argc, char** argv) {
  std::string trace_json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg.rfind("--trace-json=", 0) == 0) {
      trace_json = value_of("--trace-json=");
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 3;
    }
  }
  if (!trace_json.empty()) cosm::obs::set_enabled(true);

  cosm::service::WhatIfService service;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::cout << service.handle_line(line) << std::endl;
  }

  if (!trace_json.empty()) {
    std::ofstream trace(trace_json);
    if (!trace) {
      std::cerr << "cannot open " << trace_json << " for writing\n";
      return 3;
    }
    cosm::obs::export_json(trace);
  }
  return 0;
}
