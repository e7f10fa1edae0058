"""crev_analyze: the static analyzer of the Cornucopia Reloaded
simulator (DESIGN.md section 16).

It builds a repo-wide call graph from a token-level C++ front end and
runs four reachability passes over it (no-yield reachability,
lock-evidence propagation, uncharged-access reachability, epoch-phase
ordering), four token passes over src/ and bench/ (host
nondeterminism, unordered iteration, raw threading, PTE publish), and
an audit of the waivers.
"""

VERSION = "2.0"
