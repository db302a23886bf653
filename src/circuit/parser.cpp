#include "circuit/parser.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace ficon {
namespace {

[[noreturn]] void parse_error(int line, const std::string& what) {
  throw std::invalid_argument("parse error at line " + std::to_string(line) +
                              ": " + what);
}

/// Strip a trailing '#'-comment and surrounding whitespace.
std::string clean_line(std::string line) {
  if (const auto pos = line.find('#'); pos != std::string::npos) {
    line.erase(pos);
  }
  const auto first = line.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return {};
  const auto last = line.find_last_not_of(" \t\r\n");
  return line.substr(first, last - first + 1);
}

/// Parse "<module>[@fx,fy]" or a bare terminal name.
Pin parse_pin_token(const std::string& token,
                    const std::map<std::string, int>& module_index,
                    const std::map<std::string, int>& terminal_index,
                    const std::vector<Terminal>& terminals, int line) {
  std::string pin_name = token;
  double fx = 0.5, fy = 0.5;
  bool has_offset = false;
  if (const auto at = token.find('@'); at != std::string::npos) {
    pin_name = token.substr(0, at);
    const std::string coords = token.substr(at + 1);
    const auto comma = coords.find(',');
    if (comma == std::string::npos) parse_error(line, "pin offset needs fx,fy");
    try {
      fx = std::stod(coords.substr(0, comma));
      fy = std::stod(coords.substr(comma + 1));
    } catch (const std::exception&) {
      parse_error(line, "bad pin offset '" + coords + "'");
    }
    has_offset = true;
  }
  if (fx < 0.0 || fx > 1.0 || fy < 0.0 || fy > 1.0) {
    parse_error(line, "pin offset outside [0,1]");
  }
  if (const auto it = module_index.find(pin_name); it != module_index.end()) {
    return Pin::on_module(it->second, fx, fy);
  }
  if (const auto it = terminal_index.find(pin_name);
      it != terminal_index.end()) {
    if (has_offset) {
      parse_error(line, "terminal pin '" + pin_name +
                            "' cannot carry an @offset (position is fixed "
                            "by the terminal declaration)");
    }
    return Pin::on_terminal(it->second,
                            terminals[static_cast<std::size_t>(it->second)]);
  }
  parse_error(line, "unknown module or terminal '" + pin_name + "' in net");
}

}  // namespace

Netlist parse_netlist(std::istream& in) {
  std::string circuit_name = "unnamed";
  std::vector<Module> modules;
  std::vector<Terminal> terminals;
  std::vector<Net> nets;
  std::map<std::string, int> module_index;
  std::map<std::string, int> terminal_index;

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = clean_line(raw);
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string keyword;
    is >> keyword;
    if (keyword == "circuit") {
      if (!(is >> circuit_name)) parse_error(line_no, "circuit needs a name");
    } else if (keyword == "module") {
      Module m;
      if (!(is >> m.name >> m.width >> m.height)) {
        parse_error(line_no, "module needs: name width height");
      }
      if (m.width <= 0.0 || m.height <= 0.0) {
        parse_error(line_no, "module dimensions must be positive");
      }
      if (terminal_index.count(m.name) != 0 ||
          !module_index.emplace(m.name, static_cast<int>(modules.size()))
               .second) {
        parse_error(line_no, "duplicate module '" + m.name + "'");
      }
      modules.push_back(std::move(m));
    } else if (keyword == "terminal") {
      Terminal t;
      if (!(is >> t.name >> t.fx >> t.fy)) {
        parse_error(line_no, "terminal needs: name fx fy");
      }
      if (t.fx < 0.0 || t.fx > 1.0 || t.fy < 0.0 || t.fy > 1.0) {
        parse_error(line_no, "terminal position outside [0,1]");
      }
      if (module_index.count(t.name) != 0 ||
          !terminal_index.emplace(t.name, static_cast<int>(terminals.size()))
               .second) {
        parse_error(line_no, "duplicate terminal '" + t.name + "'");
      }
      terminals.push_back(std::move(t));
    } else if (keyword == "net") {
      Net net;
      if (!(is >> net.name)) parse_error(line_no, "net needs a name");
      std::string token;
      while (is >> token) {
        net.pins.push_back(parse_pin_token(token, module_index,
                                           terminal_index, terminals,
                                           line_no));
      }
      if (net.pins.size() < 2) parse_error(line_no, "net needs >= 2 pins");
      nets.push_back(std::move(net));
    } else {
      parse_error(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  return Netlist(circuit_name, std::move(modules), std::move(terminals),
                 std::move(nets));
}

Netlist load_netlist(const std::string& path) {
  std::ifstream in(path);
  FICON_REQUIRE(in.good(), "cannot open netlist file '" + path + "'");
  return parse_netlist(in);
}

void save_netlist(const Netlist& netlist, std::ostream& out) {
  out << "# ficon netlist, " << netlist.module_count() << " modules, "
      << netlist.terminal_count() << " terminals, " << netlist.net_count()
      << " nets\n";
  out << "circuit " << netlist.name() << '\n';
  out.precision(17);
  for (const Module& m : netlist.modules()) {
    out << "module " << m.name << ' ' << m.width << ' ' << m.height << '\n';
  }
  for (const Terminal& t : netlist.terminals()) {
    out << "terminal " << t.name << ' ' << t.fx << ' ' << t.fy << '\n';
  }
  for (const Net& net : netlist.nets()) {
    out << "net " << net.name;
    for (const Pin& pin : net.pins) {
      if (pin.is_terminal()) {
        out << ' '
            << netlist.terminals()[static_cast<std::size_t>(pin.terminal)].name;
      } else {
        out << ' '
            << netlist.modules()[static_cast<std::size_t>(pin.module)].name
            << '@' << pin.fx << ',' << pin.fy;
      }
    }
    out << '\n';
  }
}

// ---------------------------------------------------------------------------
// GSRC bookshelf format
// ---------------------------------------------------------------------------

Netlist parse_gsrc(std::istream& blocks, std::istream& nets,
                   const std::string& name) {
  return parse_gsrc(blocks, nets, nullptr, name);
}

Netlist parse_gsrc(std::istream& blocks, std::istream& nets, std::istream* pl,
                   const std::string& name) {
  std::vector<Module> modules;
  // Maps block name -> module index; kTerminalMark flags terminal pads,
  // which become Netlist terminals when a .pl stream supplies positions
  // and are dropped otherwise.
  constexpr int kTerminalMark = -1;
  std::map<std::string, int> module_index;
  std::vector<std::string> terminal_names;

  std::string raw;
  int line_no = 0;
  while (std::getline(blocks, raw)) {
    ++line_no;
    const std::string line = clean_line(raw);
    if (line.empty()) continue;
    // Skip headers and counters ("UCSC blocks 1.0", "NumTerminals : 42", ...).
    if (line.rfind("UCSC", 0) == 0 || line.rfind("UCLA", 0) == 0 ||
        line.find(':') != std::string::npos) {
      continue;
    }
    std::istringstream is(line);
    std::string block_name, kind;
    is >> block_name >> kind;
    if (kind == "terminal") {
      module_index[block_name] = kTerminalMark;
      terminal_names.push_back(block_name);
      continue;
    }
    if (kind == "hardrectilinear") {
      int corners = 0;
      is >> corners;
      if (corners != 4) {
        parse_error(line_no, "only 4-corner hardrectilinear blocks supported");
      }
      double xmin = 1e300, ymin = 1e300, xmax = -1e300, ymax = -1e300;
      // Corners look like "(0, 0)" possibly with internal spaces.
      std::string rest;
      std::getline(is, rest);
      std::string digits;
      std::vector<double> vals;
      // stod throws std::out_of_range past the double range (1e999).
      const auto push_number = [&] {
        try {
          vals.push_back(std::stod(digits));
        } catch (const std::exception&) {
          parse_error(line_no, "bad corner coordinate '" + digits + "'");
        }
        digits.clear();
      };
      for (const char c : rest) {
        if ((c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' ||
            c == 'e' || c == 'E') {
          digits += c;
        } else if (!digits.empty()) {
          push_number();
        }
      }
      if (!digits.empty()) push_number();
      if (vals.size() != 8) parse_error(line_no, "expected 4 corner points");
      for (std::size_t i = 0; i + 1 < vals.size(); i += 2) {
        xmin = std::min(xmin, vals[i]);
        xmax = std::max(xmax, vals[i]);
        ymin = std::min(ymin, vals[i + 1]);
        ymax = std::max(ymax, vals[i + 1]);
      }
      if (xmax <= xmin || ymax <= ymin) {
        parse_error(line_no, "degenerate block outline");
      }
      // Corners within the double range can still be an infinite width
      // apart (-1e308 to 1e308).
      if (!std::isfinite(xmax - xmin) || !std::isfinite(ymax - ymin)) {
        parse_error(line_no, "block outline too large");
      }
      module_index[block_name] = static_cast<int>(modules.size());
      modules.push_back(Module{block_name, xmax - xmin, ymax - ymin});
      continue;
    }
    if (kind == "softrectangular") {
      // Soft blocks: area + aspect bounds; the slicing packer's shape
      // curves sample the allowed aspect range.
      double area = 0.0, lo = 1.0, hi = 1.0;
      is >> area >> lo >> hi;
      if (area <= 0.0) parse_error(line_no, "soft block needs positive area");
      if (lo <= 0.0 || lo > hi) {
        parse_error(line_no, "soft block needs 0 < min_aspect <= max_aspect");
      }
      module_index[block_name] = static_cast<int>(modules.size());
      modules.push_back(Module::make_soft(block_name, area, lo, hi));
      continue;
    }
    parse_error(line_no, "unknown block kind '" + kind + "'");
  }

  // --- Optional .pl stream: absolute pad coordinates, normalized into the
  // terminal bounding box so pad positions track the final chip outline.
  std::vector<Terminal> terminals;
  std::map<std::string, int> terminal_index;
  if (pl != nullptr) {
    std::map<std::string, Point> raw_positions;
    double xmin = 1e300, ymin = 1e300, xmax = -1e300, ymax = -1e300;
    line_no = 0;
    while (std::getline(*pl, raw)) {
      ++line_no;
      const std::string line = clean_line(raw);
      if (line.empty() || line.rfind("UCLA", 0) == 0 ||
          line.rfind("UCSC", 0) == 0 || line.find(':') != std::string::npos) {
        continue;
      }
      std::istringstream is(line);
      std::string entry;
      double x = 0.0, y = 0.0;
      if (!(is >> entry >> x >> y)) continue;
      const auto it = module_index.find(entry);
      if (it == module_index.end() || it->second != kTerminalMark) continue;
      raw_positions[entry] = Point{x, y};
      xmin = std::min(xmin, x);
      xmax = std::max(xmax, x);
      ymin = std::min(ymin, y);
      ymax = std::max(ymax, y);
    }
    const double w = xmax > xmin ? xmax - xmin : 1.0;
    const double h = ymax > ymin ? ymax - ymin : 1.0;
    for (const std::string& t : terminal_names) {
      const auto it = raw_positions.find(t);
      if (it == raw_positions.end()) continue;  // pad without a placement
      terminal_index[t] = static_cast<int>(terminals.size());
      terminals.push_back(Terminal{t, (it->second.x - xmin) / w,
                                   (it->second.y - ymin) / h});
    }
  }

  std::vector<Net> net_list;
  line_no = 0;
  int net_counter = 0;
  Net current;
  int expected_degree = 0;
  const auto flush_net = [&]() {
    if (expected_degree == 0) return;
    if (current.pins.size() >= 2) {
      current.name = name + "_n" + std::to_string(net_counter);
      net_list.push_back(current);
    }
    ++net_counter;
    current = Net{};
    expected_degree = 0;
  };
  while (std::getline(nets, raw)) {
    ++line_no;
    const std::string line = clean_line(raw);
    if (line.empty()) continue;
    if (line.rfind("UCLA", 0) == 0 || line.rfind("UCSC", 0) == 0) continue;
    std::istringstream is(line);
    std::string first;
    is >> first;
    if (first == "NetDegree") {
      flush_net();
      std::string colon;
      is >> colon >> expected_degree;
      continue;
    }
    if (first == "NumNets" || first == "NumPins") continue;
    if (expected_degree == 0) continue;  // stray pin line before any net
    const auto it = module_index.find(first);
    if (it == module_index.end()) {
      parse_error(line_no, "pin references unknown block '" + first + "'");
    }
    if (it->second == kTerminalMark) {
      // Terminal pad: keep it when a .pl stream located it, drop otherwise.
      const auto tit = terminal_index.find(first);
      if (tit != terminal_index.end()) {
        current.pins.push_back(Pin::on_terminal(
            tit->second,
            terminals[static_cast<std::size_t>(tit->second)]));
      }
      continue;
    }
    // Optional "%x %y" offsets after the B flag are percentages of the
    // block half-dimensions; map to fractional offsets when present.
    std::string flag;
    is >> flag;
    double px = 0.0, py = 0.0;
    double fx = 0.5, fy = 0.5;
    if (is >> px >> py) {
      fx = std::clamp(0.5 + px / 100.0, 0.0, 1.0);
      fy = std::clamp(0.5 + py / 100.0, 0.0, 1.0);
    }
    current.pins.push_back(Pin::on_module(it->second, fx, fy));
  }
  flush_net();

  // Nets whose only module-side connection vanished (pads-only nets) were
  // already filtered by flush_net's degree check; the Netlist constructor
  // re-validates the rest.
  return Netlist(name, std::move(modules), std::move(terminals),
                 std::move(net_list));
}

Netlist load_gsrc(const std::string& blocks_path) {
  std::ifstream blocks(blocks_path);
  FICON_REQUIRE(blocks.good(), "cannot open '" + blocks_path + "'");
  std::string stem = blocks_path;
  if (const auto dot = stem.rfind(".blocks"); dot != std::string::npos) {
    stem.erase(dot);
  }
  const std::string nets_path = stem + ".nets";
  std::ifstream nets(nets_path);
  FICON_REQUIRE(nets.good(), "cannot open '" + nets_path + "'");
  std::string name = stem;
  if (const auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name.erase(0, slash + 1);
  }
  std::ifstream pl(stem + ".pl");
  if (pl.good()) {
    return parse_gsrc(blocks, nets, &pl, name);
  }
  return parse_gsrc(blocks, nets, nullptr, name);
}

}  // namespace ficon
