#pragma once
#include "serve/rollup.h"
