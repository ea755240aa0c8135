#!/bin/sh
# Console-script smoke test, run by both tier1 jobs after installing the
# package: package data loads, every subcommand runs, bad input exits 2.
set -e
atlas classify tables23 > /dev/null
atlas classify tables23 --seed 1 --samples 3 > /dev/null
status=0
atlas branch A2 --sub marks:1,1 2> /dev/null || status=$?
test "$status" -eq 2
status=0
atlas classify mixed --n 0 2> /dev/null || status=$?
test "$status" -eq 2
status=0
atlas cohom orbit A2 --label wdd:20 2> /dev/null || status=$?  # not a diagram of A2
test "$status" -eq 2
status=0
atlas decomp B2 --label wdd:02 2> /dev/null || status=$?  # not a diagram of B2
test "$status" -eq 2
status=0
atlas classify table1 --types '' 2> /dev/null || status=$?
test "$status" -eq 2
status=0
atlas orbits list A1xA1 2> /dev/null || status=$?  # orbit labels need a simple type
test "$status" -eq 2
atlas classify ss-c2 --max-rank 1 > /dev/null
atlas classify ss-c2 --max-rank 4 --seed 1 > /dev/null
atlas classify ss-c2 --max-rank 8 > /dev/null
atlas roots A2xG2xB3 > /dev/null
atlas cohom flag F4 --cross 2,3 --samples 2 > /dev/null
atlas cohom flag G2xG2xG2xG2xG2xG2xG2xG2xG2 --cross 1 --samples 1 > /dev/null
atlas cohom flag G2 --cross 1 --samples 2 > /dev/null
# both flows cross step-block boundaries (cohom.STACK_CELLS): E7 in 4 blocks, E8 in 2
atlas cohom orbit E7 --label ntm --samples 40 > /dev/null
atlas cohom orbit E8 --label ntm > /dev/null
atlas branch E8 --sub marks:1,0,0,0,0,0,0,0 > /dev/null
atlas branch G2 --sub nodes:2 > /dev/null
atlas branch E6 --sub nodes:2,3,4,5 > /dev/null
atlas branch A2xG2 --sub nodes:1,3 > /dev/null
atlas branch F4 --sub marks:0,0,0,1 > /dev/null
atlas decomp E6 --label ntm > /dev/null
atlas orbits list E8 > /dev/null
atlas orbits hasse D8 > /dev/null
atlas orbits list B6 > /dev/null
atlas orbits list D12 > /dev/null
atlas classify mixed --n 6 > /dev/null
atlas classify table1 --types G2,F4,E6,E7 > /dev/null
atlas classify table1 --types E8 > /dev/null
