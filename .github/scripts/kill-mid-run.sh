#!/usr/bin/env bash
# Usage: kill-mid-run.sh '<ready condition>' <command> [args...]
#
# Starts <command> in the background, polls the shell condition every
# 50 ms, and SIGKILLs the run as soon as the condition holds (e.g. the
# first checkpoint file exists). Fails unless the kill is what ended the
# run: a run that finished first would make the resume/restore check
# restore from a completed run instead of an interrupted one.
set -u
cond=$1
shift
"$@" &
pid=$!
until eval "$cond"; do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$pid" 2>/dev/null
wait "$pid"
status=$?
if [ "$status" -ne 137 ]; then
  echo "kill-mid-run: '$*' exited with status $status before the kill landed" >&2
  exit 1
fi
