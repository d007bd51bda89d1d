//go:build !linux

package main

import "errors"

func setIdlePolicy() error { return errors.New("SCHED_IDLE is Linux-only") }
