#pragma once
#include "core/fleet.h"
#include "agent/counters.h"
#include "streaming/pipeline.h"
